package experiment

import (
	"testing"

	"cesrm/internal/chaos"
	"cesrm/internal/stats"
	"cesrm/internal/trace"
)

// TestLMSLateJoinerRepairsOnlyWhatItHeld runs the LMS late-join row of
// WRN950919 at scale 0.01, as the LMS pin does. Its joiner, host 5, is
// the designated replier of NAKs for packets 11 and 12, sent before it
// joined: it hands them on to the source, which repairs both, and the
// validator's invariant 11 (only a holder repairs) stays clean.
func TestLMSLateJoinerRepairsOnlyWhatItHeld(t *testing.T) {
	tr, err := trace.Catalog[3].Load(0.01)
	if err != nil {
		t.Fatal(err)
	}
	var spec *chaos.Spec
	for _, s := range chaos.Scenarios(tr.Tree, chaosHorizon(tr)) {
		if s.Name == "late-join" {
			spec = s
		}
	}
	if spec == nil {
		t.Fatal("no late-join scenario")
	}
	res, err := Run(RunConfig{Trace: tr, Protocol: LMS, Seed: 5, Chaos: spec, ReleaseRecovered: true, KeepEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Events {
		if e.Kind == stats.EventReplySent && e.Host == 5 && e.Seq < 15 {
			t.Errorf("host 5 repaired packet %d, below its floor 15", e.Seq)
		}
		if e.Kind == stats.EventRecovered && e.Host == 9 && (e.Seq == 11 || e.Seq == 12) && e.Replier != 0 {
			t.Errorf("host 9 recovered packet %d from host %d, not the source", e.Seq, e.Replier)
		}
	}
}
