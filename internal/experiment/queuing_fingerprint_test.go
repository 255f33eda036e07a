package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/core"
	"cesrm/internal/netsim"
	"cesrm/internal/trace"
)

// churnUnderCap is the benchmark's congested_churn fault schedule for
// one trace: a two-packet queue cap over the middle 80 % of the stream,
// and two receivers that each leave and come back inside it.
func churnUnderCap(tr *trace.Trace) *chaos.Spec {
	d := tr.Duration()
	at := func(share float64) time.Duration { return time.Duration(share * float64(d)) }
	rc := tr.Tree.Receivers()
	first, middle := rc[0], rc[len(rc)/2]
	return &chaos.Spec{Name: "congested_churn", Faults: []chaos.Fault{
		{Kind: chaos.QueueCap, At: at(0.1), Until: at(0.9), Cap: 2},
		{Kind: chaos.Leave, At: at(0.3), Host: first},
		{Kind: chaos.Join, At: at(0.6), Host: first},
		{Kind: chaos.Leave, At: at(0.4), Host: middle},
		{Kind: chaos.Join, At: at(0.7), Host: middle},
	}}
}

// queuingFingerprints runs the queuing flood's three entry conditions —
// a chaos queue-cap window with churn (three catalog traces × both
// protocols), a network built with Config.Queuing, and a router-assisted
// CESRM run whose expedited replies subcast under the cap — and renders
// one line per run: fingerprint, queue drops (which the fingerprint
// leaves out on purpose) and subcast payload crossings.
func queuingFingerprints(t *testing.T) string {
	t.Helper()
	load := func(i int) *trace.Trace {
		tr, err := trace.Catalog[i].Load(0.1)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	var out strings.Builder
	run := func(label string, cfg RunConfig) *RunResult {
		cfg.Seed = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(&out, "%-26s %s  queue_drops=%d subcast=%d\n",
			label, res.Fingerprint, res.QueueDrops, res.Crossings.PayloadSubcast)
		return res
	}
	for _, i := range []int{0, 4, 11} {
		tr := load(i)
		for _, p := range []Protocol{SRM, CESRM} {
			res := run(fmt.Sprintf("churn/%s/%v", tr.Name, p),
				RunConfig{Trace: tr, Protocol: p, Chaos: churnUnderCap(tr)})
			if res.QueueDrops == 0 {
				t.Errorf("churn/%s/%v: the cap dropped nothing; the run does not exercise the queue", tr.Name, p)
			}
		}
	}
	static := netsim.DefaultConfig()
	static.Queuing = true
	run("static/WRN951113/CESRM", RunConfig{Trace: load(6), Protocol: CESRM, Net: static})

	tr := load(3)
	res := run("assist/WRN950919/CESRM", RunConfig{
		Trace: tr, Protocol: CESRM, CESRM: core.Config{RouterAssist: true},
		Chaos: &chaos.Spec{Name: "cap", Faults: []chaos.Fault{
			{Kind: chaos.QueueCap, At: 0, Until: tr.Duration(), Cap: 2},
		}},
	})
	if res.Crossings.PayloadSubcast == 0 {
		t.Error("assist: no expedited reply was subcast under the cap")
	}
	return out.String()
}

// TestQueuingFingerprints pins the event-per-hop queuing flood, which
// the catalog goldens never enter. The goldens were recorded at commit
// 29da9f9, when every hop was its own wheel record; the churn rows were
// re-pinned when late joiners stopped answering requests for packets
// below their floor. A drift is a behavior change, not a golden to
// update.
func TestQueuingFingerprints(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "queuing-fingerprints", "scale-0.1-seed-1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := queuingFingerprints(t); got != string(want) {
		t.Fatalf("queuing fingerprints drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}
