// Command cesrm-soak is the chaos-fuzzing soak harness: it generates
// seeded random (trace × protocol × chaos-spec) trials, runs each under
// the online invariant validator with the engine guardrails armed,
// classifies failures, delta-debugs failing chaos specs to minimal
// reproducing schedules, and optionally persists them as replayable
// corpus entries.
//
// The campaign is a pure function of its flags: the same seed, trial
// count, scale and candidate sets print bit-identical output on every
// run. -replay switches to corpus-replay mode: every *.spec entry of a
// file or directory is rerun and must terminate with a structured
// status; invariant violations, panics and liveness timeouts fail the
// command, budget aborts are reported but tolerated.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cesrm/cmd/internal/cli"
	"cesrm/internal/experiment"
	"cesrm/internal/sim"
	"cesrm/internal/soak"
	"cesrm/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cesrm-soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "campaign seed; the whole run is a pure function of the flags")
	trials := fs.Int("trials", 25, "number of randomized trials")
	scale := fs.Float64("scale", 0.01, "trace volume scale in (0,1]")
	budgetTime := fs.Duration("budget", 30*time.Minute, "virtual-time guardrail per trial (0 disables)")
	maxEvents := fs.Uint64("max-events", 50_000_000, "executed-event guardrail per trial (0 disables)")
	minimize := fs.Bool("minimize", true, "delta-debug failing chaos specs to minimal reproducing schedules")
	replay := fs.String("replay", "", "replay a corpus entry file or directory instead of fuzzing")
	corpusDir := fs.String("corpus", "", "write each minimized failure as a corpus entry into this directory")
	traces := fs.String("traces", "4,12,13", "comma-separated 1-based catalog trace indices to draw from")
	protocols := fs.String("protocols", "SRM,CESRM,LMS", "comma-separated candidate protocols")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	budget := soak.DefaultBudget()
	budget.MaxVirtualTime = sim.Time(*budgetTime)
	budget.MaxEvents = *maxEvents

	if *replay != "" {
		return replayCorpus(*replay, budget, stdout, stderr)
	}

	indices, err := cli.ParseIndices(*traces)
	if err != nil {
		fmt.Fprintln(stderr, "cesrm-soak:", err)
		return 2
	}
	protos, err := parseProtocols(*protocols)
	if err != nil {
		fmt.Fprintln(stderr, "cesrm-soak:", err)
		return 2
	}

	fmt.Fprintf(stdout, "soak: seed=%d trials=%d scale=%v traces=%v protocols=%s\n",
		*seed, *trials, *scale, indices, *protocols)
	res, err := soak.Run(soak.Config{
		Seed: *seed, Trials: *trials, Scale: *scale,
		Traces: indices, Protocols: protos,
		Budget: budget, Minimize: *minimize, Log: stdout,
	})
	if err != nil {
		fmt.Fprintln(stderr, "cesrm-soak:", err)
		return 2
	}
	fmt.Fprintf(stdout, "soak: %d trials, %d failures\n", res.Trials, len(res.Failures))
	if *corpusDir != "" && len(res.Failures) > 0 {
		if err := writeCorpus(*corpusDir, *seed, res.Failures, stdout); err != nil {
			fmt.Fprintln(stderr, "cesrm-soak:", err)
			return 2
		}
	}
	if len(res.Failures) > 0 {
		return 1
	}
	return 0
}

// writeCorpus persists each failure's minimized spec (or the original,
// when minimization was off) as a replayable corpus entry.
func writeCorpus(dir string, seed int64, failures []*soak.Failure, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, f := range failures {
		spec := f.Minimized
		if spec == nil {
			spec = f.Trial.Spec
		}
		e := &soak.Entry{
			Trace:    traceName(f.Trial.TraceIndex),
			Protocol: f.Trial.Protocol,
			Scale:    f.Trial.Scale,
			Seed:     f.Trial.Seed,
			Spec:     spec,
			Class:    f.Class,
			Note:     []string{fmt.Sprintf("captured by cesrm-soak -seed %d", seed), f.Detail},
		}
		path := filepath.Join(dir, fmt.Sprintf("soak-%d-%d-%s.spec", seed, i, classSlug(f.Class)))
		if err := soak.WriteEntry(path, e); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "corpus: wrote %s\n", path)
	}
	return nil
}

func replayCorpus(path string, budget sim.Budget, stdout, stderr io.Writer) int {
	r := soak.NewRunner(budget)
	outcomes, err := r.ReplayPath(path)
	fatal := 0
	for _, o := range outcomes {
		switch {
		case o.Failure == nil:
			fmt.Fprintf(stdout, "replay %s: ok status=%s fingerprint=%s\n", o.Path, o.Status, o.Fingerprint)
		case o.Failure.Fatal():
			fatal++
			fmt.Fprintf(stdout, "replay %s: FAIL class=%s\n  detail: %s\n", o.Path, o.Failure.Class, o.Failure.Detail)
		default:
			fmt.Fprintf(stdout, "replay %s: degraded class=%s (tolerated)\n", o.Path, o.Failure.Class)
		}
		if o.Entry.Class != "" && (o.Failure == nil || o.Failure.Class != o.Entry.Class) {
			got := "clean completion"
			if o.Failure != nil {
				got = o.Failure.Class
			}
			fmt.Fprintf(stdout, "  note: recorded class %q, now %s\n", o.Entry.Class, got)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "cesrm-soak:", err)
		return 2
	}
	fmt.Fprintf(stdout, "replay: %d entries, %d fatal\n", len(outcomes), fatal)
	if fatal > 0 {
		return 1
	}
	return 0
}

func parseProtocols(s string) ([]experiment.Protocol, error) {
	var out []experiment.Protocol
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := experiment.ParseProtocol(part)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// traceName resolves a 1-based catalog index to its trace name.
func traceName(index int) string {
	if index >= 1 && index <= len(trace.Catalog) {
		return trace.Catalog[index-1].Name
	}
	return fmt.Sprintf("trace-%d", index)
}

// classSlug turns a failure class into a filename-safe token.
func classSlug(class string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '-'
		}
	}, class)
}
