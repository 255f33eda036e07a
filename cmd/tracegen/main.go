// Command tracegen generates, inspects and converts synthetic IP
// multicast transmission traces.
//
// Subcommands:
//
//	tracegen catalog [-scale 0.1]             # print Table 1 for the generated catalog
//	tracegen gen -o out.trace [flags]         # generate one trace to a file
//	tracegen info file.trace                  # summarize a trace file
//	tracegen infer file.trace                 # run the §4.2 link inference on a trace
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"cesrm/cmd/internal/cli"
	"cesrm/internal/lossinfer"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: tracegen <catalog|gen|info|infer> [flags]")
	}
	switch args[0] {
	case "catalog":
		return catalog(args[1:])
	case "gen":
		return gen(args[1:])
	case "info":
		return info(args[1:])
	case "infer":
		return infer(args[1:])
	case "locality":
		return locality(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// locality prints the loss-locality statistics of a trace file or, with
// no argument, of the whole generated catalog — the phenomenon CESRM's
// caching exploits (§1).
func locality(args []string) error {
	fs := flag.NewFlagSet("locality", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.1, "catalog volume scale when no file is given")
	if err := fs.Parse(args); err != nil {
		return err
	}
	printRow := func(name string, s trace.LocalityStats) {
		same := "n/a"
		if s.SameLinkConsecutive >= 0 {
			same = fmt.Sprintf("%.0f%%", 100*s.SameLinkConsecutive)
		}
		fmt.Printf("%-12s lossP=%.3f condP=%.3f ratio=%.1fx burst(mean=%.1f p50=%d p90=%d) sameLink=%s patternRepeat=%.0f%%\n",
			name, s.UncondLossProb, s.CondLossProb, s.LocalityRatio(),
			s.MeanBurstLen, s.BurstPercentile(0.5), s.BurstPercentile(0.9),
			same, 100*s.PatternRepeat)
	}
	if fs.NArg() == 1 {
		tr, err := cli.LoadTrace(fs.Arg(0), "", 0)
		if err != nil {
			return err
		}
		printRow(tr.Name, trace.AnalyzeLocality(tr))
		return nil
	}
	for _, e := range trace.Catalog {
		tr, err := e.Load(*scale)
		if err != nil {
			return err
		}
		printRow(e.Name, trace.AnalyzeLocality(tr))
	}
	return nil
}

func catalog(args []string) error {
	fs := flag.NewFlagSet("catalog", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.1, "volume scale (> 0); 1 = full Table 1 volumes")
	extended := fs.Bool("extended", false, "include the extended stress entries (SYN10K et al.)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	entries := trace.Catalog
	if *extended {
		entries = append(append([]trace.CatalogEntry(nil), entries...), trace.Extended...)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "#\tTrace\tRcvrs\tDepth\tPeriod\tPkts\tLosses\tTarget\tBurstLen\tCalibErr")
	for _, e := range entries {
		tr, err := e.Load(*scale)
		if err != nil {
			return err
		}
		spec, _ := e.Spec(*scale)
		st := tr.ComputeStats()
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%v\t%d\t%d\t%d\t%.1f\t%.1f%%\n",
			e.Index, st.Name, st.Receivers, st.TreeDepth, st.Period,
			st.Packets, st.Losses, spec.TargetLosses, tr.MeanBurstLength(),
			100*trace.CalibrationError(tr, spec.TargetLosses))
	}
	return tw.Flush()
}

func gen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	out := fs.String("o", "", "output file (required)")
	name := fs.String("name", "synthetic", "trace name")
	receivers := fs.Int("receivers", 10, "number of receivers")
	depth := fs.Int("depth", 4, "tree depth")
	packets := fs.Int("packets", 10000, "packets to transmit")
	period := fs.Duration("period", 80*time.Millisecond, "transmission period")
	losses := fs.Int("losses", 3000, "target aggregate loss count")
	burst := fs.Float64("burst", 8, "mean loss burst length")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -o is required")
	}
	tr, err := trace.Generate(trace.GenSpec{
		Name:         *name,
		Topology:     topology.GenSpec{Receivers: *receivers, Depth: *depth},
		NumPackets:   *packets,
		Period:       *period,
		TargetLosses: *losses,
		MeanBurstLen: *burst,
		Seed:         *seed,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Marshal(f, tr); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %v\n", *out, tr.ComputeStats())
	return nil
}

func info(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: tracegen info <file>")
	}
	tr, err := cli.LoadTrace(args[0], "", 0)
	if err != nil {
		return err
	}
	st := tr.ComputeStats()
	fmt.Println(st.String())
	fmt.Printf("mean burst length: %.2f\n", tr.MeanBurstLength())
	fmt.Printf("tree: %v\n", tr.Tree)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "recv\tnode\tlosses\trate")
	for i, r := range tr.Tree.Receivers() {
		n := tr.ReceiverLosses(i)
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.2f%%\n", i+1, r, n, 100*float64(n)/float64(tr.NumPackets()))
	}
	return tw.Flush()
}

func infer(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: tracegen infer <file>")
	}
	tr, err := cli.LoadTrace(args[0], "", 0)
	if err != nil {
		return err
	}
	yaj := lossinfer.EstimateYajnik(tr)
	mle := lossinfer.EstimateMLE(tr)
	mean, max, err := lossinfer.Compare(yaj, mle)
	if err != nil {
		return err
	}
	fmt.Printf("estimator agreement: mean |Δ| = %.4f, max |Δ| = %.4f\n", mean, max)
	res, err := lossinfer.Infer(tr, yaj)
	if err != nil {
		return err
	}
	fmt.Printf("distinct loss patterns: %d\n", res.DistinctPatterns)
	fmt.Printf("selection confidence: >95%%: %.1f%%  >98%%: %.1f%%\n",
		100*res.Confidence(0.95), 100*res.Confidence(0.98))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "link\tYajnik\tMLE")
	for _, l := range tr.Tree.Links() {
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\n", l, yaj[l], mle[l])
	}
	return tw.Flush()
}
