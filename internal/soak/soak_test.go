package soak

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"cesrm/internal/experiment"
	"cesrm/internal/sim"
	"cesrm/internal/stats"
)

// TestGeneratorIsDeterministic pins the soak acceptance criterion that
// a campaign is a pure function of its seed: two generators with the
// same arguments emit identical trial streams, and different seeds
// diverge.
func TestGeneratorIsDeterministic(t *testing.T) {
	mk := func(seed int64) []string {
		g, err := NewGenerator(seed, []int{4, 13}, []experiment.Protocol{experiment.SRM, experiment.CESRM, experiment.LMS}, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := 0; i < 20; i++ {
			trial, err := g.Next()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, trial.String())
		}
		return out
	}
	a, b := mk(7), mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d diverged:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	c := mk(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 generated identical trial streams")
	}
}

// TestGeneratorSpecsAreValid checks every generated spec validates
// against its trial's topology and reparses from its own rendering —
// the generator feeds both the runner and the corpus format.
func TestGeneratorSpecsAreValid(t *testing.T) {
	g, err := NewGenerator(3, []int{4}, []experiment.Protocol{experiment.CESRM}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.loader.load(4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	horizon := Horizon(tr)
	for i := 0; i < 50; i++ {
		trial, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := trial.Spec.Validate(tr.Tree); err != nil {
			t.Fatalf("trial %d spec %q invalid: %v", i, trial.Spec, err)
		}
		if len(trial.Spec.Faults) == 0 {
			t.Fatalf("trial %d: empty spec", i)
		}
		for _, f := range trial.Spec.Faults {
			if f.At > 2*horizon || f.Until > 2*horizon {
				t.Fatalf("trial %d: fault %+v far outside horizon %v", i, f, horizon)
			}
		}
		if _, err := ParseEntry((&Entry{
			Trace: "WRN950919", Protocol: trial.Protocol, Scale: trial.Scale,
			Seed: trial.Seed, Spec: trial.Spec,
		}).Marshal()); err != nil {
			t.Fatalf("trial %d spec %q does not survive corpus round trip: %v", i, trial.Spec, err)
		}
	}
}

// TestSoakRunIsBitReproducible runs the same small campaign twice and
// compares the log streams byte for byte.
func TestSoakRunIsBitReproducible(t *testing.T) {
	run := func() (*Result, string) {
		var buf bytes.Buffer
		res, err := Run(Config{
			Seed: 11, Trials: 4, Scale: 0.01, Traces: []int{4},
			Protocols: []experiment.Protocol{experiment.SRM, experiment.CESRM},
			Minimize:  true, Log: &buf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	resA, logA := run()
	resB, logB := run()
	if logA != logB {
		t.Fatalf("soak logs diverged:\n--- first\n%s--- second\n%s", logA, logB)
	}
	if resA.Trials != 4 || resB.Trials != 4 {
		t.Fatalf("trial counts %d/%d, want 4", resA.Trials, resB.Trials)
	}
	if len(resA.Failures) != len(resB.Failures) {
		t.Fatalf("failure counts diverged: %d vs %d", len(resA.Failures), len(resB.Failures))
	}
}

// TestRunTrialBudgetClass checks a budget abort classifies as
// "budget:<status>" with the partial result attached, and the failure
// is non-fatal (replay tolerates it).
func TestRunTrialBudgetClass(t *testing.T) {
	g, err := NewGenerator(1, []int{4}, []experiment.Protocol{experiment.CESRM}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	trial, err := g.Next()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(sim.Budget{MaxVirtualTime: sim.Time(2 * time.Second)})
	res, fail := r.RunTrial(trial)
	if fail == nil {
		t.Fatal("2s virtual-time budget did not fail the trial")
	}
	if want := "budget:" + sim.DeadlineExceeded.String(); fail.Class != want {
		t.Fatalf("class %q, want %q", fail.Class, want)
	}
	if fail.Fatal() {
		t.Error("budget abort classified as fatal")
	}
	if res == nil || res.Status != sim.DeadlineExceeded {
		t.Fatalf("budget abort carries no partial result: %+v", res)
	}
}

// TestClassifyStableClasses pins the classifier's class strings — the
// minimizer matches on them, so they are part of the corpus contract.
func TestClassifyStableClasses(t *testing.T) {
	trial := Trial{TraceIndex: 4, Protocol: experiment.CESRM}
	cases := []struct {
		err  error
		want string
	}{
		{&stats.InvariantError{Violations: []stats.Violation{{Class: "crash-silence", Detail: "x"}}}, "invariant:crash-silence"},
		{fmt.Errorf("wrapped: %w", &stats.InvariantError{Violations: []stats.Violation{{Class: "clock-regression", Detail: "x"}}}), "invariant:clock-regression"},
		{&experiment.QuiesceError{Trace: "T", Protocol: experiment.SRM, MaxTail: time.Minute}, "timeout"},
		{fmt.Errorf("receiver 3 finished missing 2 packets"), "error"},
	}
	for _, c := range cases {
		if got := classify(trial, c.err).Class; got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
	panics := []struct {
		rec  any
		want string
	}{
		{&sim.PastScheduleError{At: 1, Now: 2}, "panic:past-schedule"},
		{"slice out of range", "panic"},
	}
	for _, c := range panics {
		if got := panicClass(c.rec); got != c.want {
			t.Errorf("panicClass(%v) = %q, want %q", c.rec, got, c.want)
		}
	}
	for _, fatal := range []string{"invariant:crash-silence", "timeout", "panic:past-schedule", "panic", "error"} {
		if !(&Failure{Class: fatal}).Fatal() {
			t.Errorf("class %q not fatal", fatal)
		}
	}
	if (&Failure{Class: "budget:" + sim.Stalled.String()}).Fatal() {
		t.Error("budget class is fatal")
	}
}

// TestRunTrialRecoversPanics checks the runner survives a panicking
// protocol stack: a panic anywhere under experiment.Run must come back
// as a classified Failure, not kill the soak loop. A healthy tree
// cannot be made to panic on demand, so the run is substituted through
// the runExperiment test seam.
func TestRunTrialRecoversPanics(t *testing.T) {
	orig := runExperiment
	defer func() { runExperiment = orig }()
	runExperiment = func(experiment.RunConfig) (*experiment.RunResult, error) {
		panic(&sim.PastScheduleError{At: sim.Time(time.Second), Now: sim.Time(2 * time.Second)})
	}
	r := NewRunner(DefaultBudget())
	trial := Trial{TraceIndex: 4, Protocol: experiment.CESRM, Scale: 0.01, Seed: 1}
	res, fail := r.RunTrial(trial)
	if res != nil {
		t.Error("panicked run returned a result")
	}
	if fail == nil || fail.Class != "panic:past-schedule" {
		t.Fatalf("failure = %+v, want class panic:past-schedule", fail)
	}
	if !strings.Contains(fail.Detail, "past") {
		t.Errorf("detail %q does not describe the past-schedule", fail.Detail)
	}
}
