package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/trace"
)

// TestBudgetAbortDegradesGracefully checks that a run tripping a
// guardrail returns a structured result — termination status plus a
// diagnostic snapshot with per-host outstanding losses — instead of an
// error, a hang or a panic, and that the clock never passes the bound.
func TestBudgetAbortDegradesGracefully(t *testing.T) {
	tr := smallTrace(t, 42)
	budget := sim.Budget{MaxVirtualTime: sim.Time(2 * time.Second)} // inside the 3 s warmup
	res, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 9, Budget: budget})
	if err != nil {
		t.Fatalf("budget abort surfaced as error: %v", err)
	}
	if res.Status != sim.DeadlineExceeded {
		t.Fatalf("Status = %v, want DeadlineExceeded", res.Status)
	}
	if res.Diag == nil {
		t.Fatal("aborted run carries no diagnostic")
	}
	if res.Diag.Clock > sim.Time(2*time.Second) {
		t.Errorf("clock %v advanced past the %v budget", res.Diag.Clock, 2*time.Second)
	}
	if res.FinishedAt != res.Diag.Clock {
		t.Errorf("FinishedAt %v != diagnostic clock %v", res.FinishedAt, res.Diag.Clock)
	}
	if res.Diag.Pending == 0 {
		t.Error("diagnostic reports no pending events for a run aborted mid-flight")
	}
	if res.Fingerprint == "" {
		t.Error("aborted run has no fingerprint")
	}
}

// TestBudgetAbortIsDeterministic checks that aborted runs are exactly
// as reproducible as completed ones: same config, same partial
// fingerprint, same diagnostic.
func TestBudgetAbortIsDeterministic(t *testing.T) {
	tr := smallTrace(t, 43)
	cfg := RunConfig{Trace: tr, Protocol: SRM, Seed: 3,
		Budget: sim.Budget{MaxEvents: 20000}}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != sim.EventBudgetExceeded || b.Status != a.Status {
		t.Fatalf("statuses %v/%v, want EventBudgetExceeded twice", a.Status, b.Status)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("aborted-run fingerprints diverged: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	if a.Diag.String() != b.Diag.String() {
		t.Fatalf("diagnostics diverged:\n  %s\n  %s", a.Diag, b.Diag)
	}
}

// TestZeroBudgetLeavesGoldensUntouched pins the acceptance criterion
// that an explicitly zero budget configuration is behaviorally
// invisible: the golden fingerprints of TestGoldenFingerprints must
// come out byte-identical with the guardrail field present-but-off, and
// identical again with every guardrail armed generously enough never to
// trip.
func TestZeroBudgetLeavesGoldensUntouched(t *testing.T) {
	tr := smallTrace(t, 99)
	want := goldenFingerprints
	generous := sim.Budget{
		MaxVirtualTime: sim.Time(24 * time.Hour),
		MaxEvents:      1 << 40,
		MaxPending:     1 << 30,
		StallEvents:    1 << 30,
	}
	for p, fp := range want {
		for _, b := range []sim.Budget{{}, generous} {
			res, err := Run(RunConfig{Trace: tr, Protocol: p, Seed: 123, Budget: b})
			if err != nil {
				t.Fatalf("%v (budget %+v): %v", p, b, err)
			}
			if res.Status != sim.Completed {
				t.Fatalf("%v (budget %+v): status %v", p, b, res.Status)
			}
			if res.Fingerprint != fp {
				t.Errorf("%v (budget %+v) fingerprint drifted:\n got  %s\n want %s",
					p, b, res.Fingerprint, fp)
			}
		}
	}
}

// TestSuiteLoadFailureAbortsAndNamesTrace: a trace that cannot be
// generated fails the sweep, and the error names it. A spoiled catalog
// entry is given a loss target no link rates can reach (every
// receiver-packet lost), so its Load fails inside the job. With two
// spoiled traces the error names the lower catalog index whatever the
// selection order, with one worker or two.
func TestSuiteLoadFailureAbortsAndNamesTrace(t *testing.T) {
	spoil := func(index int) string {
		entry := &trace.Catalog[index-1]
		saved := *entry
		t.Cleanup(func() { *entry = saved })
		entry.Losses = entry.Receivers * entry.Packets
		return fmt.Sprintf("trace %d (%s)", index, saved.Name)
	}
	fourth := spoil(4)
	for _, parallel := range []int{1, 2} {
		s := Suite{Scale: 0.01, Seed: 1, Traces: []int{4, 13}, Parallel: parallel}
		if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "unreachable") || !strings.Contains(err.Error(), fourth) {
			t.Errorf("parallel=%d: the load failure must abort and name %s: %v", parallel, fourth, err)
		}
	}
	spoil(13)
	for _, parallel := range []int{1, 2} {
		s := Suite{Scale: 0.01, Seed: 1, Traces: []int{13, 4}, Parallel: parallel}
		if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), fourth) {
			t.Errorf("parallel=%d: traces 13 and 4 both fail; the error must name %s: %v", parallel, fourth, err)
		}
	}
}

// TestSuiteCarriesTerminationStatuses checks budget statuses propagate
// through SuiteResult without turning the sweep into an error.
func TestSuiteCarriesTerminationStatuses(t *testing.T) {
	s := Suite{Scale: 0.01, Seed: 1, Traces: []int{4},
		Base: RunConfig{Budget: sim.Budget{MaxVirtualTime: sim.Time(2 * time.Second)}}}
	results, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].Pair.SRM.Status; got != sim.DeadlineExceeded {
		t.Errorf("SRM status = %v, want DeadlineExceeded", got)
	}
	if got := results[0].Pair.CESRM.Status; got != sim.DeadlineExceeded {
		t.Errorf("CESRM status = %v, want DeadlineExceeded", got)
	}
}
