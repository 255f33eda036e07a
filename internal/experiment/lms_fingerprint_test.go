package experiment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cesrm/internal/chaos"
	"cesrm/internal/trace"
)

// chaosPinTraces are the 1-based catalog traces every chaos scenario is
// pinned on beyond scale 0.01's clean runs: the same three the CI
// chaos-matrix diff sweeps at scale 0.1.
var chaosPinTraces = []int{2, 4, 13}

// pinnedRun is one row of a fingerprint pin: a catalog trace under one
// chaos scenario ("clean" for none).
type pinnedRun struct {
	entry    trace.CatalogEntry
	scenario string
	cfg      RunConfig
}

// pinnedRuns lists the runs the LMS pin and the expedition-off relation
// cover at the given scale: every catalog trace clean, then every
// chaos.Scenarios spec on chaosPinTraces. Each runs as Suite and the
// chaos matrix do — seed 1 plus the trace index, release live.
func pinnedRuns(tb testing.TB, scale float64) []pinnedRun {
	tb.Helper()
	var out []pinnedRun
	load := func(idx int) *trace.Trace {
		tr, err := trace.Catalog[idx-1].Load(scale)
		if err != nil {
			tb.Fatal(err)
		}
		return tr
	}
	for _, e := range trace.Catalog {
		cfg := RunConfig{Trace: load(e.Index), Seed: 1 + int64(e.Index), ReleaseRecovered: true}
		out = append(out, pinnedRun{e, "clean", cfg})
	}
	for _, idx := range chaosPinTraces {
		tr := load(idx)
		for _, spec := range chaos.Scenarios(tr.Tree, chaosHorizon(tr)) {
			cfg := RunConfig{Trace: tr, Seed: 1 + int64(idx), Chaos: spec, ReleaseRecovered: true}
			out = append(out, pinnedRun{trace.Catalog[idx-1], spec.Name, cfg})
		}
	}
	return out
}

// renderLMSFingerprints runs every pinned configuration under LMS and
// prints one line per run: trace index, name, scenario and digest.
func renderLMSFingerprints(tb testing.TB, w io.Writer, scale float64) {
	tb.Helper()
	fmt.Fprintf(w, "LMS fingerprints, scale=%g seed=1\n", scale)
	for _, r := range pinnedRuns(tb, scale) {
		r.cfg.Protocol = LMS
		res, err := Run(r.cfg)
		if err != nil {
			tb.Fatalf("trace %s scenario %s: %v", r.entry.Name, r.scenario, err)
		}
		fmt.Fprintf(w, "%d %s %s %s\n", r.entry.Index, r.entry.Name, r.scenario, res.Fingerprint)
	}
}

// TestLMSFingerprints pins LMS the way the catalog and chaos-matrix
// goldens pin SRM and CESRM: the 14 catalog traces clean and the 12
// chaos scenarios on three of them, at scale 0.01. A drift is a
// behaviour change, not a golden to regenerate.
func TestLMSFingerprints(t *testing.T) {
	const golden = "testdata/lms-fingerprints/scale-0.01-seed-1.txt"
	want, err := os.ReadFile(filepath.FromSlash(golden))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	renderLMSFingerprints(t, &got, 0.01)
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("LMS fingerprints diverge from %s at line %d:\n got  %q\n want %q", golden, i+1, gl, wl)
		}
	}
}
