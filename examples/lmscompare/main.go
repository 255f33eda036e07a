// Lmscompare: the §3.3/§5 argument in one run. Four recovery schemes on
// the same trace — SRM, CESRM, router-assisted CESRM, and LMS — first
// fault-free, then with the receiver LMS designates as replier crashing
// mid-transmission. LMS is the cheapest when nothing fails; when its
// replier dies, NAKs stall on stale router state until the fabric
// refresh, while CESRM degrades gracefully to SRM and re-caches.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/core"
	"cesrm/internal/experiment"
	"cesrm/internal/trace"
)

func main() {
	name := flag.String("trace", "WRN951214", "Table 1 trace name")
	scale := flag.Float64("scale", 0.1, "trace volume scale in (0,1]")
	seed := flag.Int64("seed", 3, "random seed")
	refresh := flag.Duration("refresh", 8*time.Second, "LMS router replier-state staleness window")
	flag.Parse()

	entry, ok := trace.ByName(*name)
	if !ok {
		log.Fatalf("unknown trace %q", *name)
	}
	tr, err := entry.Load(*scale)
	if err != nil {
		log.Fatal(err)
	}
	losses := float64(tr.TotalLosses())

	variants := []struct {
		label string
		cfg   experiment.RunConfig
	}{
		{"SRM", experiment.RunConfig{Protocol: experiment.SRM}},
		{"CESRM", experiment.RunConfig{Protocol: experiment.CESRM}},
		{"CESRM-RA", experiment.RunConfig{Protocol: experiment.CESRM, CESRM: core.Config{RouterAssist: true}}},
		{"LMS", experiment.RunConfig{Protocol: experiment.LMS, LMSRefresh: *refresh}},
	}

	run := func(label string, cfg experiment.RunConfig, faults *chaos.Spec) (mean, p99, cost float64) {
		cfg.Trace = tr
		cfg.Seed = *seed
		cfg.Chaos = faults
		res, err := experiment.Run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		return res.Collector.OverallNormalized(res.RTT).MeanRTT,
			res.Collector.NormalizedPercentile(res.RTT, 0.99),
			float64(res.Crossings.RecoveryTotal()) / losses
	}

	fmt.Printf("=== %s at scale %v: %d packets, %d losses ===\n", entry.Name, *scale, tr.NumPackets(), tr.TotalLosses())

	fmt.Println("\nfault-free (latency in RTT units, cost in link crossings per loss):")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  scheme\tmean\tp99\tcost/loss")
	for _, v := range variants {
		mean, p99, cost := run(v.label, v.cfg, nil)
		fmt.Fprintf(tw, "  %s\t%.2f\t%.1f\t%.1f\n", v.label, mean, p99, cost)
	}
	tw.Flush()

	// Crash the receiver LMS designates as replier (the lowest-ID
	// receiver) a third of the way into the transmission.
	victim := tr.Tree.Receivers()[0]
	crashAt := 3*time.Second + tr.Duration()/3
	crash := &chaos.Spec{Name: "replier-crash", Faults: []chaos.Fault{{Kind: chaos.Crash, At: crashAt, Host: victim}}}
	fmt.Printf("\nwith designated replier (host %d) crashing at %v (LMS router state stale for %v):\n",
		victim, crashAt.Round(time.Second), *refresh)
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  scheme\tmean\tp99\tcost/loss")
	for _, v := range variants {
		mean, p99, cost := run(v.label, v.cfg, crash)
		fmt.Fprintf(tw, "  %s\t%.2f\t%.1f\t%.1f\n", v.label, mean, p99, cost)
	}
	tw.Flush()
	fmt.Println("\n(LMS's p99 blows up by the staleness window; CESRM's fallback keeps its tail flat — §3.3)")
}
