// Command cesrm-bench reenacts the paper's trace-driven evaluation (§4):
// it generates the 14 Table 1 traces, runs each under SRM and CESRM, and
// prints every table and figure of the evaluation section.
//
// Usage:
//
//	cesrm-bench [-scale 0.1 [-scale 1 ...]] [-seed 1] [-traces 1,4,7] [-trace WRN] [-section all]
//	            [-delay 20ms] [-lossy] [-policy most-recent] [-router-assist]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// At -scale 1 the full Table 1 packet volumes are simulated (hundreds of
// thousands of packets per trace); smaller scales shrink volumes
// proportionally while preserving loss rates and burst structure, and
// scales above 1 extrapolate beyond the paper's volumes (e.g. -scale 5
// replays five times the recorded transmission). Repeating -scale (or
// passing a comma-separated list) sweeps the suite over every given
// scale in order, so one invocation produces a scaling curve instead of
// a single point.
//
// -traces selects by 1-based catalog index; -trace selects by name
// (case-insensitive substring, repeatable). Both may be combined; the
// selection is the union, in catalog order.
//
// -section fingerprints prints each run's determinism fingerprint: a
// change preserved the suite's behavior when that section diffs clean
// against the previous revision's, and
// internal/experiment/testdata/catalog-fingerprints holds the recorded
// sections for seed 1. -section costs prints each run's exact work
// counts (events, records, crossings, plan and queue counts); its seed-1
// recordings are internal/experiment/testdata/cost-ledger. Performance is
// measured by `go run ./benchmark`, not here.
//
// -cpuprofile and -memprofile write pprof profiles of the suite run(s)
// for hot-path analysis (go tool pprof).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"cesrm/cmd/internal/cli"
	"cesrm/internal/chaos"
	"cesrm/internal/core"
	"cesrm/internal/experiment"
	"cesrm/internal/srm"
	"cesrm/internal/trace"
)

// runChaosMatrix sweeps the deterministic fault-injection scenario
// matrix (see chaos.Scenarios) over every selected trace under SRM and
// CESRM. Each run executes with the online invariant validator armed —
// post-crash silence, live-receiver reliability, bounded SRM fallback —
// so a scenario that violates the fail-stop model fails the sweep. The
// printed fingerprints are reproducible: same seed, same spec, same
// digest.
func runChaosMatrix(stdout io.Writer, indices []int, scale float64, base experiment.RunConfig) error {
	if indices == nil {
		for _, e := range trace.Catalog {
			indices = append(indices, e.Index)
		}
	}
	fmt.Fprintf(stdout, "cesrm-bench: chaos scenario matrix, scale=%v seed=%d\n\n", scale, base.Seed)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "#\tTrace\tScenario\tProto\tFinishedAt\tFingerprint")
	warmup := 3 * srm.DefaultParams().SessionPeriod
	for _, idx := range indices {
		if idx < 1 || idx > len(trace.Catalog) {
			return fmt.Errorf("trace index %d out of [1, %d]", idx, len(trace.Catalog))
		}
		entry := trace.Catalog[idx-1]
		tr, err := entry.Load(scale)
		if err != nil {
			return err
		}
		horizon := warmup + time.Duration(tr.NumPackets())*tr.Period
		for _, spec := range chaos.Scenarios(tr.Tree, horizon) {
			for _, proto := range []experiment.Protocol{experiment.SRM, experiment.CESRM} {
				cfg := base
				cfg.Trace, cfg.Protocol, cfg.Chaos = tr, proto, spec
				cfg.Seed += int64(idx)
				// As Suite runs; release is inert, so the fingerprints
				// printed are the retained run's.
				cfg.ReleaseRecovered = true
				res, err := experiment.Run(cfg)
				if err != nil {
					return fmt.Errorf("trace %s scenario %s/%s: %w", entry.Name, spec.Name, proto, err)
				}
				fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%v\t%s\n",
					idx, entry.Name, spec.Name, proto, res.FinishedAt, res.Fingerprint)
			}
		}
	}
	tw.Flush()
	fmt.Fprintln(stdout, "\nall scenarios completed with invariants green")
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cesrm-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cesrm-bench", flag.ContinueOnError)
	var scales cli.Scales
	fs.Var(&scales, "scale", "trace volume scale (> 0); 1 = full Table 1 volumes, 5 = a 5x extrapolation; repeatable (or comma-separated) to sweep")
	base := cli.AddRun(fs)
	traces := fs.String("traces", "", "comma-separated 1-based trace indices (default: all 14)")
	var traceNames cli.Names
	fs.Var(&traceNames, "trace", "trace name filter (case-insensitive substring); repeatable, unioned with -traces")
	sections := []string{"all"}
	for _, s := range experiment.Sections {
		sections = append(sections, s.Name)
	}
	sectionName := fs.String("section", "all", "output section: "+strings.Join(sections, ", "))
	policy := fs.String("policy", "most-recent", "CESRM expedition policy: most-recent or most-frequent")
	parallel := fs.Int("parallel", runtime.NumCPU(), "max traces simulating concurrently (1 = serial)")
	chaosMatrix := fs.Bool("chaos-matrix", false, "run the deterministic fault-injection scenario matrix per selected trace (instead of the figure suite) and report per-scenario fingerprints")
	profiles := cli.AddProfiles(fs, "the suite run(s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(scales) == 0 {
		scales = cli.Scales{0.1}
	}

	indices, err := cli.SelectTraces(*traces, traceNames)
	if err != nil {
		return err
	}
	switch *policy {
	case "most-recent":
		base.CESRM.Policy = core.MostRecentLoss{}
	case "most-frequent":
		base.CESRM.Policy = core.MostFrequentLoss{}
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	section, ok := experiment.FindSection(*sectionName)
	if !ok && !*chaosMatrix {
		return fmt.Errorf("unknown section %q", *sectionName)
	}

	stopCPU, err := profiles.StartCPU()
	if err != nil {
		return err
	}
	defer stopCPU()

	if *chaosMatrix {
		if len(scales) > 1 {
			return fmt.Errorf("-chaos-matrix takes a single -scale")
		}
		return runChaosMatrix(stdout, indices, scales[0], *base)
	}

	for si, scale := range scales {
		suite := experiment.Suite{Scale: scale, Seed: base.Seed, Traces: indices, Parallel: *parallel, Base: *base}
		if si > 0 {
			fmt.Fprintln(stdout, strings.Repeat("=", 72))
		}
		fmt.Fprintf(stdout, "cesrm-bench: scale=%v seed=%d delay=%v lossy=%v policy=%s router-assist=%v\n\n",
			scale, base.Seed, base.Net.LinkDelay, base.LossyRecovery, *policy, base.CESRM.RouterAssist)

		results, err := suite.Run()
		if err != nil {
			return err
		}
		section.Render(stdout, results, base.Seed)
	}

	return profiles.WriteMem()
}
