// Command cesrm-sim runs a single trace-driven simulation of SRM or
// CESRM and prints a detailed report: recovery latency distribution,
// per-host traffic, expedited statistics, link-crossing overhead and
// the run's determinism fingerprint.
//
// The trace is either a catalog entry (-trace WRN951216) or a file
// produced by tracegen (-file path).
//
// -verify-determinism N reruns the configuration N extra times and
// fails if any rerun's fingerprint diverges from the first — the
// determinism audit. -chaos SPEC installs the deterministic
// fault-injection harness (host crashes and restarts, link flaps,
// jitter ramps, duplicate storms, session starvation, graceful leaves
// and joins, link queue caps; see
// chaos.ParseSpec for the grammar) and composes with the audit: a chaos
// run must replay to the identical fingerprint. -events FILE dumps the
// ordered protocol-event stream as NDJSON for timeline debugging.
// -explain host:seq prints, in place of the report, one loss's causal
// chain on the source's stream: the host's detection, every request,
// expedited request and reply for the packet, and the host's recovery,
// each in ms since the detection and in the host's RTTs to the source.
// -diff a.ndjson b.ndjson runs nothing: it reads two -events files and
// prints the first event at which they part, with the few before it,
// every loss whose outcome changed (detected, requestor, replier,
// request rounds, expedited, abandoned, recovery instant), and the
// count of losses that kept theirs.
// -cpuprofile and -memprofile write pprof profiles of the run for
// hot-path analysis.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"cesrm/cmd/internal/cli"
	"cesrm/internal/chaos"
	"cesrm/internal/core"
	"cesrm/internal/experiment"
	"cesrm/internal/netsim"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cesrm-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cesrm-sim", flag.ContinueOnError)
	name := fs.String("trace", "WRN951216", "catalog trace name")
	file := fs.String("file", "", "trace file (overrides -trace)")
	scale := fs.Float64("scale", 0.1, "catalog trace volume scale (> 0); 1 = full Table 1 volumes")
	protoName := fs.String("protocol", "cesrm", "protocol: srm, cesrm or lms")
	seed := fs.Int64("seed", 1, "random seed")
	delay := fs.Duration("delay", 20*time.Millisecond, "per-link one-way delay")
	lossy := fs.Bool("lossy", false, "drop recovery traffic with estimated link rates")
	routerAssist := fs.Bool("router-assist", false, "enable router-assisted CESRM (§3.3)")
	chaosSpec := fs.String("chaos", "", `fault-injection spec, e.g. "crash@40s:host=3;restart@70s:host=3" (kinds: crash, restart, link-down, link-up, jitter, dup, starve, leave, join, qcap)`)
	verifyDet := fs.Int("verify-determinism", 0, "rerun the config N extra times and fail on fingerprint divergence")
	eventsFile := fs.String("events", "", "write the ordered protocol-event stream as NDJSON to this file")
	explain := fs.String("explain", "", "print one loss's causal chain instead of the report: host:seq, a packet of the source's stream the host lost")
	diff := fs.Bool("diff", false, "compare two -events files instead of running: -diff a.ndjson b.ndjson")
	profiles := cli.AddProfiles(fs, "the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff wants two -events files, got %d arguments", fs.NArg())
		}
		return diffEvents(stdout, fs.Arg(0), fs.Arg(1))
	}
	var explainHost topology.NodeID
	var explainSeq int
	if *explain != "" {
		var err error
		if explainHost, explainSeq, err = parseLoss(*explain); err != nil {
			return err
		}
	}

	stopCPU, err := profiles.StartCPU()
	if err != nil {
		return err
	}
	defer stopCPU()

	var tr *trace.Trace
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = trace.Unmarshal(f)
		if err != nil {
			return err
		}
	} else {
		entry, ok := trace.ByName(*name)
		if !ok {
			return fmt.Errorf("unknown catalog trace %q", *name)
		}
		tr, err = entry.Load(*scale)
		if err != nil {
			return err
		}
	}

	proto, err := experiment.ParseProtocol(*protoName)
	if err != nil {
		return err
	}

	netCfg := netsim.DefaultConfig()
	netCfg.LinkDelay = *delay
	cfg := experiment.RunConfig{
		Trace:         tr,
		Protocol:      proto,
		Net:           netCfg,
		CESRM:         core.Config{RouterAssist: *routerAssist},
		LossyRecovery: *lossy,
		Seed:          *seed,
		// The event stream is materialized only when the timeline dump or
		// -explain asked for it; every other invocation runs stream-only.
		KeepEvents: *eventsFile != "" || *explain != "",
	}
	if *chaosSpec != "" {
		spec, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			return err
		}
		if err := spec.Validate(tr.Tree); err != nil {
			return err
		}
		cfg.Chaos = spec
	}

	var res *experiment.RunResult
	if *verifyDet > 0 {
		res, err = experiment.VerifyDeterminism(cfg, *verifyDet)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "determinism audit: %d reruns, all fingerprints match\n", *verifyDet)
	} else {
		res, err = experiment.Run(cfg)
		if err != nil {
			return err
		}
	}

	if *eventsFile != "" {
		f, err := os.Create(*eventsFile)
		if err != nil {
			return err
		}
		if err := stats.WriteEventsNDJSON(f, res.Events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "event timeline: %d events written to %s\n", len(res.Events), *eventsFile)
	}

	if err := profiles.WriteMem(); err != nil {
		return err
	}

	if *explain != "" {
		return explainLoss(stdout, res, explainHost, explainSeq)
	}
	report(stdout, tr, proto, res)
	return nil
}

func report(stdout io.Writer, tr *trace.Trace, proto experiment.Protocol, res *experiment.RunResult) {
	st := tr.ComputeStats()
	fmt.Fprintf(stdout, "trace %s: %d receivers, depth %d, %d packets, %d losses (burst len %.1f)\n",
		st.Name, st.Receivers, st.TreeDepth, st.Packets, st.Losses, tr.MeanBurstLength())
	fmt.Fprintf(stdout, "protocol %s: finished at %v (inference confidence@95%% = %.1f%%)\n",
		proto, res.FinishedAt, 100*res.InferenceConfidence95)
	if spec := res.Config.Chaos; spec != nil {
		fmt.Fprintf(stdout, "chaos: %s\n", spec)
	}
	fmt.Fprintf(stdout, "fingerprint: %s\n\n", res.Fingerprint)

	all := res.Collector.OverallNormalized(res.RTT)
	fr := res.Collector.FirstRoundNormalized(res.RTT)
	fmt.Fprintf(stdout, "recoveries: %d, mean latency %.2f RTT (first-round %.2f RTT over %d)\n",
		all.Count, all.MeanRTT, fr.MeanRTT, fr.Count)
	if ratio, ok := res.Collector.ExpeditedSuccessRatio(); ok {
		tot := res.Collector.TotalCounts()
		fmt.Fprintf(stdout, "expedited: %d requests, %d replies (%.1f%% success)\n",
			tot.ExpRequests, tot.ExpReplies, 100*ratio)
	}

	fmt.Fprintln(stdout, "\nper-receiver mean normalized recovery (RTT units):")
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  recv\tlosses\trecoveries\tmeanRTT\texpedited\treqs\texpReqs\treplies\texpReplies")
	for _, r := range res.Receivers {
		s := res.Collector.NormalizedRecovery(r, res.RTT)
		exp, _ := res.Collector.NormalizedRecoverySplit(r, res.RTT)
		hc := res.Collector.Counts(r)
		fmt.Fprintf(tw, "  %d\t%d\t%d\t%.2f\t%d\t%d\t%d\t%d\t%d\n",
			r, res.Collector.Losses(r), s.Count, s.MeanRTT, exp.Count,
			hc.Requests, hc.ExpRequests, hc.Replies, hc.ExpReplies)
	}
	tw.Flush()

	fmt.Fprintln(stdout, "\nrecovery latency percentiles (RTT units):")
	printPercentiles(stdout, res)

	c := res.Crossings
	fmt.Fprintf(stdout, "\nlink crossings: data=%d session=%d | retrans: mcast=%d subcast=%d ucast=%d | control: mcast=%d subcast=%d ucast=%d | recovery total=%d\n",
		c.Data, c.Session, c.PayloadMulticast, c.PayloadSubcast, c.PayloadUnicast,
		c.ControlMulticast, c.ControlSubcast, c.ControlUnicast, c.RecoveryTotal())
}

func printPercentiles(stdout io.Writer, res *experiment.RunResult) {
	if len(res.Collector.Recoveries()) == 0 {
		fmt.Fprintln(stdout, "  (no recoveries)")
		return
	}
	pct := func(q float64) float64 { return res.Collector.NormalizedPercentile(res.RTT, q) }
	fmt.Fprintf(stdout, "  p10=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
		pct(0.10), pct(0.50), pct(0.90), pct(0.99), pct(1))
}
