package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// smokeOptions shrinks the inputs a hundredfold and uses a seed that no
// workload was sized with.
func smokeOptions() runOptions {
	return runOptions{Seed: 2, Scale: 0.01, EndToEnd: true, Layers: true, Passes: 1}
}

func requireClean(t *testing.T, w *workloadResult) {
	t.Helper()
	if w.Attempted < 1 || w.Failed != 0 {
		t.Fatalf("%s: %d attempted, %d failed: %v", w.Name, w.Attempted, w.Failed, w.Failures)
	}
	for _, m := range endToEnd {
		if s, ok := w.EndToEnd[m.Name]; !ok || s.Median <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want it reported and never 0", w.Name, m.Name, s.Median)
		}
	}
	for _, m := range perLayer {
		if _, ok := w.PerLayer[m.Name]; !ok {
			t.Errorf("%s: per-layer metric %s is missing", w.Name, m.Name)
		}
	}
}

func TestSimulatedWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{wPaperSuite, wWideGroup, wCacheOverflow, wCongestedChurn} {
		t.Run(name, func(t *testing.T) {
			w, err := runWorkload(name, smokeOptions())
			if err != nil {
				t.Fatal(err)
			}
			requireClean(t, w)
			l := w.PerLayer
			for _, r := range w.Runs {
				if !strings.HasPrefix(r.Fingerprint, "v") {
					t.Errorf("%s/%s: fingerprint %q", r.Trace, r.Protocol, r.Fingerprint)
				}
			}
			if l["netsim.crossings.data"] <= 0 || l["srm.sessions"] <= 0 || l["trace.packets"] <= 0 {
				t.Errorf("outside counters are empty: %v data crossings, %v sessions, %v packets",
					l["netsim.crossings.data"], l["srm.sessions"], l["trace.packets"])
			}
			if name == wCongestedChurn {
				// No traced assembly here: outside counters and run spans only.
				if l["experiment.run_s.srm"] <= 0 || l["srm.deliver.data.calls"] != 0 {
					t.Errorf("congested_churn: run span %v, traced calls %v; want a run span and no traced pass",
						l["experiment.run_s.srm"], l["srm.deliver.data.calls"])
				}
				return
			}
			// The traced pass ran, saw the same computation (requireClean
			// would have reported a counter mismatch) and attributed time.
			for _, m := range []string{"srm.deliver.data.calls", "core.deliver.session.calls", "sim.schedule.calls",
				"netsim.send.multicast.calls", "stats.observer.calls", "srm.timer_fire.calls"} {
				if l[m] <= 0 {
					t.Errorf("traced counter %s = %v, want > 0", m, l[m])
				}
			}
			if c := l["tracing.coverage_frac"]; c <= 0 || c > 2 {
				t.Errorf("tracing.coverage_frac = %v, want about 1 or below (a sampled estimate)", c)
			}
			if name == wWideGroup && (l["experiment.sharded_speedup"] <= 0 || l["sim.barrier_event_frac"] < 0 || l["sim.barrier_event_frac"] > 1) {
				t.Errorf("sharded speedup %v, barrier share %v", l["experiment.sharded_speedup"], l["sim.barrier_event_frac"])
			}
		})
	}
}

func TestMeshAndReplaySmoke(t *testing.T) {
	w, err := runWorkload(wWireReplay, smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, w)
	l := w.PerLayer
	if w.Link != "loopback" {
		t.Errorf("link %q, want loopback", w.Link)
	}
	if l["wire.live.completed_nodes"] != 5 {
		t.Errorf("%v mesh nodes completed, want 5", l["wire.live.completed_nodes"])
	}
	for _, m := range []string{"wire.live.datagrams_received", "wire.replay.ns_per_record", "wire.read_capture.ns_per_record",
		"netsim.codec.encode_ns", "netsim.codec.decode_ns", "wire.driver.inject_to_deliver_p50_us"} {
		if l[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, l[m])
		}
	}
	if l["netsim.crossings.data"] != 0 {
		t.Errorf("wire_replay reports simulator crossings %v, want 0", l["netsim.crossings.data"])
	}
}

func TestSameSeedGivesSameInputs(t *testing.T) {
	for _, name := range []string{wPaperSuite, wWideGroup} {
		a, err := buildSimInputs(name, 3, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildSimInputs(name, 3, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Traces {
			x, y := a.Traces[i], b.Traces[i]
			if x.TotalLosses() != y.TotalLosses() || x.Tree.String() != y.Tree.String() {
				t.Errorf("%s trace %d differs between two set-ups of seed 3", name, i)
			}
		}
	}
}

// The driver reads one JSON object from the last line of standard
// output; the results file must carry what makes two files comparable,
// and two files of the same code must compare without a worse row.
func TestDriverLineResultsFileAndCompare(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for _, path := range paths {
		// One full-size workload would take too long here; compare needs
		// only the file's shape, which every workload shares.
		w, err := runWorkload(wWideGroup, runOptions{Seed: 2, Scale: 0.01, EndToEnd: true, Passes: 3})
		if err != nil {
			t.Fatal(err)
		}
		file := resultsFile{Schema: 1, Seed: 2, Commit: commit(), GoVersion: "go", NumCPU: 2, GOMAXPROCS: 2, Passes: 3, Workloads: []*workloadResult{w}}
		data, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]any
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"seed", "commit", "go_version", "nproc", "gomaxprocs", "passes", "workloads"} {
			if _, ok := back[key]; !ok {
				t.Errorf("results file lacks %q", key)
			}
		}
		if n := len(w.EndToEnd[mWall].Values); n != 3 {
			t.Errorf("wall_s keeps %d raw values, want every pass's (3)", n)
		}
		if err := writeResults(path, file); err != nil {
			t.Fatal(err)
		}

		var out bytes.Buffer
		if err := printDriverLine(&out, w, true); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(out.Bytes(), &line); err != nil {
			t.Fatalf("driver line %q: %v", out.String(), err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
			t.Errorf("driver line %+v", line)
		}
	}
	var out bytes.Buffer
	// Millisecond passes are all noise; the point is that identical code
	// is never reported worse on the exact metrics and that the simulated
	// results are found identical.
	_ = compareFiles(&out, paths[0], paths[1])
	text := out.String()
	if !strings.Contains(text, "wide_group: simulated results") || !strings.Contains(text, "identical") || strings.Contains(text, "DIFFERENT") {
		t.Errorf("compare output:\n%s", text)
	}
	for _, row := range strings.Split(text, "\n") {
		if strings.Contains(row, mMallocs) && !strings.HasSuffix(strings.TrimSpace(row), verdictOK) {
			t.Errorf("mallocs_m row of two runs of the same code: %s", row)
		}
	}
}
