// Package soak is the chaos-fuzzing soak harness: it generates seeded
// random (trace × protocol × chaos-spec) trials from the chaos spec
// grammar, runs each under the online invariant validator with the
// engine guardrails armed, classifies every failure — invariant
// violation, panic, liveness timeout, budget blowout — by a stable
// class string, delta-debugs failing chaos specs down to a minimal
// reproducing schedule, and persists failures as replayable corpus
// entries (testdata/soak-corpus/*.spec).
//
// Everything is deterministic in the seed: the same (seed, trials,
// scale, traces, protocols) configuration generates the same trial
// sequence, the same failures, and the same minimized specs, so a soak
// failure observed in CI reproduces bit-identically on a laptop.
package soak

import (
	"errors"
	"fmt"
	"io"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/experiment"
	"cesrm/internal/sim"
	"cesrm/internal/stats"
	"cesrm/internal/trace"
)

// Trial is one randomized soak scenario: a catalog trace, a protocol, a
// per-run seed, and a generated chaos spec, all at a fixed volume scale.
type Trial struct {
	// TraceIndex is the 1-based catalog index (trace.Catalog).
	TraceIndex int
	// Protocol selects SRM, CESRM or LMS.
	Protocol experiment.Protocol
	// Scale is the trace volume scale in (0, 1].
	Scale float64
	// Seed drives the run's protocol randomness.
	Seed int64
	// Spec is the generated chaos schedule.
	Spec *chaos.Spec
}

// String renders the trial compactly (and deterministically — soak
// output must be bit-reproducible across runs of the same seed).
func (t Trial) String() string {
	return fmt.Sprintf("trace=%d proto=%s seed=%d spec=%q", t.TraceIndex, t.Protocol, t.Seed, t.Spec)
}

// Failure records one failed trial with its stable classification.
// Classes:
//
//	invariant:<class>     online validator breach (stats.Violation class)
//	timeout               run failed to quiesce within MaxTail
//	budget:<status>       an engine guardrail aborted the run
//	panic:past-schedule   engine rejected scheduling into the past
//	panic                 any other panic
//	error                 any other run error (verification failure, bad config)
type Failure struct {
	// Trial is the failing configuration.
	Trial Trial
	// Class is the stable failure class (see above). Minimization
	// preserves the class: a shrunk spec must fail the same way.
	Class string
	// Detail is the human-readable failure description.
	Detail string
	// Minimized is the delta-debugged minimal reproducing spec, when
	// minimization ran.
	Minimized *chaos.Spec
	// ShrinkRuns counts the simulation runs the minimizer spent.
	ShrinkRuns int
}

// Fatal reports whether the failure indicates a correctness or
// liveness bug (invariant violation, panic, quiesce timeout, config
// error) rather than a structured budget stop. Corpus replay tolerates
// non-fatal failures: a budget abort is exactly the graceful
// degradation the guardrails exist to provide.
func (f *Failure) Fatal() bool {
	return f.Class != "" && !hasPrefix(f.Class, "budget:")
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// DefaultBudget is the soak harness's guardrail configuration: generous
// enough that every healthy scale-0.01 run completes with an order of
// magnitude to spare, tight enough that a runaway run (clock looping
// toward overflow, event storm, timer leak, same-instant livelock) is
// cut off in bounded wall time instead of hanging the fuzzer.
func DefaultBudget() sim.Budget {
	return sim.Budget{
		MaxVirtualTime: sim.Time(30 * time.Minute),
		MaxEvents:      50_000_000,
		MaxPending:     5_000_000,
		StallEvents:    1_000_000,
	}
}

// Runner executes trials under a fixed budget, recovering panics into
// classified Failures. It caches loaded traces across trials.
type Runner struct {
	budget sim.Budget
	loader *loader
}

// NewRunner returns a Runner with the given guardrail budget.
func NewRunner(budget sim.Budget) *Runner {
	return &Runner{budget: budget, loader: newLoader()}
}

// RunTrial executes one trial. It returns the run result (nil if the
// run panicked) and a Failure describing how the trial failed, or nil
// if it completed cleanly.
func (r *Runner) RunTrial(t Trial) (*experiment.RunResult, *Failure) {
	tr, err := r.loader.load(t.TraceIndex, t.Scale)
	if err != nil {
		return nil, &Failure{Trial: t, Class: "error", Detail: err.Error()}
	}
	return r.runLoaded(tr, t)
}

// runLoaded is RunTrial with the trace already in hand (the generator
// and minimizer share the loader cache). The deferred recover turns a
// panicking protocol stack back into data: soak must survive the bug
// classes it exists to find.
func (r *Runner) runLoaded(tr *trace.Trace, t Trial) (res *experiment.RunResult, fail *Failure) {
	defer func() {
		if rec := recover(); rec != nil {
			res = nil
			fail = &Failure{Trial: t, Class: panicClass(rec), Detail: fmt.Sprint(rec)}
		}
	}()
	// Release is live, as in Suite, the chaos matrix and the benchmark:
	// soak exercises what production runs under every generated fault mix
	// (a restart in the spec still closes the gate inside Run).
	out, err := runExperiment(experiment.RunConfig{
		Trace:            tr,
		Protocol:         t.Protocol,
		Chaos:            t.Spec,
		Budget:           r.budget,
		Seed:             t.Seed,
		ReleaseRecovered: true,
	})
	if err != nil {
		return nil, classify(t, err)
	}
	if out.Status != sim.Completed {
		detail := out.Status.String()
		if out.Diag != nil {
			detail += ": " + out.Diag.String()
		}
		return out, &Failure{Trial: t, Class: "budget:" + out.Status.String(), Detail: detail}
	}
	return out, nil
}

// runExperiment is a test seam: soak's panic-recovery tests substitute
// a run that panics, since a healthy tree cannot be made to panic on
// demand. Production code never reassigns it.
var runExperiment = experiment.Run

// panicClass maps recovered panic values to stable classes. The typed
// panic carries time context in its Error string, which ends up in
// Failure.Detail.
func panicClass(rec any) string {
	if _, ok := rec.(*sim.PastScheduleError); ok {
		return "panic:past-schedule"
	}
	return "panic"
}

// classify maps run errors to stable classes.
func classify(t Trial, err error) *Failure {
	var ie *stats.InvariantError
	var qe *experiment.QuiesceError
	switch {
	case errors.As(err, &ie):
		return &Failure{Trial: t, Class: "invariant:" + ie.Violations[0].Class, Detail: err.Error()}
	case errors.As(err, &qe):
		return &Failure{Trial: t, Class: "timeout", Detail: err.Error()}
	default:
		return &Failure{Trial: t, Class: "error", Detail: err.Error()}
	}
}

// Config parameterizes a soak campaign. Zero values select defaults.
type Config struct {
	// Seed seeds the trial generator; the whole campaign is a pure
	// function of the Config.
	Seed int64
	// Trials is the number of trials to run (default 25).
	Trials int
	// Scale is the trace volume scale (default 0.01).
	Scale float64
	// Traces lists candidate 1-based catalog indices (default 4, 12, 13
	// — the smallest Table 1 traces, for fast trials).
	Traces []int
	// Protocols lists candidate protocols (default SRM, CESRM, LMS).
	Protocols []experiment.Protocol
	// Budget is the per-trial guardrail set (default DefaultBudget).
	Budget sim.Budget
	// Minimize delta-debugs each failure's chaos spec to a minimal
	// schedule reproducing the same failure class.
	Minimize bool
	// MaxShrinkRuns bounds the simulation runs the minimizer may spend
	// per failure (default 200).
	MaxShrinkRuns int
	// Log, when non-nil, receives one line per trial. The stream is
	// bit-reproducible for a fixed Config.
	Log io.Writer
}

// Result summarizes a soak campaign.
type Result struct {
	// Trials is the number of trials executed.
	Trials int
	// Failures holds every failed trial, in execution order.
	Failures []*Failure
}

// Run executes a soak campaign: generate cfg.Trials random trials, run
// each under the budget, classify and (optionally) minimize failures.
// The harness itself never fails on a trial failure — that is the
// result being collected; the returned error covers only setup problems
// (bad trace index, bad scale).
func Run(cfg Config) (*Result, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 25
	}
	if cfg.Scale == 0 {
		cfg.Scale = 0.01
	}
	if len(cfg.Traces) == 0 {
		cfg.Traces = []int{4, 12, 13}
	}
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = []experiment.Protocol{experiment.SRM, experiment.CESRM, experiment.LMS}
	}
	if !cfg.Budget.Enabled() {
		cfg.Budget = DefaultBudget()
	}
	if cfg.MaxShrinkRuns <= 0 {
		cfg.MaxShrinkRuns = 200
	}
	gen, err := NewGenerator(cfg.Seed, cfg.Traces, cfg.Protocols, cfg.Scale)
	if err != nil {
		return nil, err
	}
	runner := NewRunner(cfg.Budget)
	runner.loader = gen.loader // share the trace cache
	out := &Result{}
	for i := 0; i < cfg.Trials; i++ {
		trial, err := gen.Next()
		if err != nil {
			return nil, err
		}
		res, fail := runner.RunTrial(trial)
		out.Trials++
		if fail == nil {
			logf(cfg.Log, "trial %d: %s ok fingerprint=%s", i, trial, res.Fingerprint)
			continue
		}
		logf(cfg.Log, "trial %d: %s FAIL class=%s", i, trial, fail.Class)
		logf(cfg.Log, "  detail: %s", fail.Detail)
		if cfg.Minimize {
			minSpec, runs := runner.Minimize(trial, fail.Class, cfg.MaxShrinkRuns)
			fail.Minimized, fail.ShrinkRuns = minSpec, runs
			logf(cfg.Log, "  minimized (%d shrink runs): %q", runs, minSpec)
		}
		out.Failures = append(out.Failures, fail)
	}
	return out, nil
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
