// Tracestudy: reproduce the paper's per-receiver analysis (Figures 1-4)
// for one Table 1 trace, showing where CESRM's gains come from receiver
// by receiver.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"cesrm/internal/experiment"
	"cesrm/internal/trace"
)

func main() {
	name := flag.String("trace", "WRN951128", "Table 1 trace name")
	scale := flag.Float64("scale", 0.1, "trace volume scale in (0,1]")
	seed := flag.Int64("seed", 9, "random seed")
	flag.Parse()

	entry, ok := trace.ByName(*name)
	if !ok {
		log.Fatalf("unknown trace %q; see Table 1 names in internal/trace/catalog.go", *name)
	}
	tr, err := entry.Load(*scale)
	if err != nil {
		log.Fatal(err)
	}
	pair, err := experiment.RunPair(tr, experiment.RunConfig{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== %s at scale %v: %d packets, %d losses ===\n\n",
		entry.Name, *scale, tr.NumPackets(), tr.TotalLosses())

	fmt.Println("Figure 1 — average normalized recovery time (RTT units):")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  recv\tSRM\tCESRM\treduction")
	for _, row := range pair.Figure1() {
		red := 0.0
		if row.SRMMean > 0 {
			red = 100 * (row.SRMMean - row.CESRMMean) / row.SRMMean
		}
		fmt.Fprintf(tw, "  %d\t%.2f\t%.2f\t%.0f%%\n", row.Index, row.SRMMean, row.CESRMMean, red)
	}
	tw.Flush()

	fmt.Println("\nFigure 2 — expedited vs non-expedited latency difference (RTT units):")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  recv\texpedited\tnon-expedited\tdelta")
	for _, row := range pair.Figure2() {
		fmt.Fprintf(tw, "  %d\t%.2f\t%.2f\t%.2f\n", row.Index, row.ExpeditedMean, row.NormalMean, row.Delta)
	}
	tw.Flush()

	fmt.Println("\nFigures 3 & 4 — packets sent per host (host 0 is the source):")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  host\treq SRM\treq CESRM\treq EXP\trepl SRM\trepl CESRM\trepl EXP")
	f4 := pair.Figure4()
	for i, row := range pair.Figure3() {
		fmt.Fprintf(tw, "  %d\t%d\t%d\t%d\t%d\t%d\t%d\n", row.Index,
			row.SRM, row.CESRMMulticast, row.CESRMExpedited,
			f4[i].SRM, f4[i].CESRMMulticast, f4[i].CESRMExpedited)
	}
	tw.Flush()

	succ, _ := pair.ExpeditedSuccess()
	o := pair.Overhead()
	fmt.Printf("\nFigure 5 — expedited success %.1f%%; overhead vs SRM: retrans %.0f%%, control %.0f%%\n",
		succ, o.RetransPct, o.ControlTotalPct())
}
