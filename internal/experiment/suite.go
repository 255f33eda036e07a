package experiment

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"text/tabwriter"

	"cesrm/internal/trace"
)

// Suite reenacts catalog traces under both protocols and renders every
// table and figure of the paper's evaluation as plain text.
type Suite struct {
	// Scale shrinks each trace's packet volume (1 = full Table 1
	// volumes); see trace.CatalogEntry.Spec.
	Scale float64
	// Seed drives protocol randomness.
	Seed int64
	// Base optionally overrides network/protocol parameters; Trace and
	// Protocol fields are ignored.
	Base RunConfig
	// Traces restricts the run to the given 1-based catalog indices;
	// empty means all 14.
	Traces []int
	// Parallel bounds how many traces simulate concurrently. Each run is
	// an independent, deterministic virtual-time simulation, so results
	// are identical to a serial run; ordering in the output is
	// preserved. Zero or one means one at a time.
	Parallel int
}

// SuiteResult holds one trace's pair plus its generation target.
type SuiteResult struct {
	Entry trace.CatalogEntry
	Pair  *Pair
}

// Run executes the suite, simulating up to Parallel traces at once. It
// returns one result per selected catalog entry, in selection order. A
// trace that fails to load, or whose pair fails, fails the sweep: every
// selected trace still runs, and the error reported is that of the
// failing trace with the lowest catalog index, whatever the selection
// order. A budget-aborted run (see RunConfig.Budget) is not a failure; it
// surfaces through its RunResult.Status.
func (s Suite) Run() ([]SuiteResult, error) {
	scale := s.Scale
	if scale == 0 {
		scale = 1
	}
	selected := s.Traces
	if len(selected) == 0 {
		for _, e := range trace.Catalog {
			selected = append(selected, e.Index)
		}
	}
	for _, idx := range selected {
		if idx < 1 || idx > len(trace.Catalog) {
			return nil, fmt.Errorf("experiment: trace index %d out of [1, %d]", idx, len(trace.Catalog))
		}
	}

	runOne := func(entry trace.CatalogEntry) (*Pair, error) {
		base := s.Base
		base.Seed = s.Seed + int64(entry.Index)
		// Suite runs shed recovered per-packet state as the watermark
		// advances (RunConfig.ReleaseRecovered), keeping peak heap bounded
		// by the in-flight recovery window instead of the whole
		// transmission.
		base.ReleaseRecovered = true
		// The trace is loaded by the job that runs it: a failed load is
		// that trace's failure, and Parallel generates concurrently.
		var pair *Pair
		tr, err := entry.Load(scale)
		if err == nil {
			pair, err = RunPair(tr, base)
		}
		if err != nil {
			return nil, fmt.Errorf("experiment: trace %d (%s): %w", entry.Index, entry.Name, err)
		}
		return pair, nil
	}

	// Bounded fan-out. Every simulation is self-contained (own engine,
	// RNGs, network), so this parallelism cannot change results.
	out := make([]SuiteResult, len(selected))
	errs := make([]error, len(selected))
	sem := make(chan struct{}, max(s.Parallel, 1))
	var wg sync.WaitGroup
	for i, idx := range selected {
		out[i].Entry = trace.Catalog[idx-1]
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i].Pair, errs[i] = runOne(out[i].Entry)
		}(i)
	}
	wg.Wait()
	// Surface the failure of the lowest catalog index, not whichever
	// position happens to come first in the selection: errors then read
	// the same regardless of how -traces ordered the selection.
	errIdx := -1
	for i, err := range errs {
		if err != nil && (errIdx == -1 || selected[i] < selected[errIdx]) {
			errIdx = i
		}
	}
	if errIdx != -1 {
		return nil, errs[errIdx]
	}
	return out, nil
}

// RenderTable1 prints the generated trace catalog next to the paper's
// Table 1 values.
func RenderTable1(w io.Writer, results []SuiteResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table 1: IP multicast traces (generated vs paper)")
	fmt.Fprintln(tw, "#\tTrace\tRcvrs\tDepth\tPeriod\tPkts\tLosses\tPaperPkts\tPaperLosses\tBurstLen")
	for _, r := range results {
		st := r.Pair.Trace.ComputeStats()
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%v\t%d\t%d\t%d\t%d\t%.1f\n",
			r.Entry.Index, st.Name, st.Receivers, st.TreeDepth, st.Period,
			st.Packets, st.Losses, r.Entry.Packets, r.Entry.Losses,
			r.Pair.Trace.MeanBurstLength())
	}
	tw.Flush()
}

// RenderSec42 prints the link-attribution confidence statistics of §4.2.
func RenderSec42(w io.Writer, results []SuiteResult) {
	fmt.Fprintln(w, "§4.2: link-attribution confidence (paper: >90% of selections exceed 95% for 13/14 traces)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "#\tTrace\t>95%\t>98%\tGroundTruth")
	for _, r := range results {
		gt := "n/a"
		if acc := r.Pair.GroundTruthAccuracy; acc >= 0 {
			gt = fmt.Sprintf("%.1f%%", 100*acc)
		}
		fmt.Fprintf(tw, "%d\t%s\t%.1f%%\t%.1f%%\t%s\n",
			r.Entry.Index, r.Entry.Name, 100*r.Pair.Confidence95, 100*r.Pair.Confidence98, gt)
	}
	tw.Flush()
}

// RenderFigure1 prints per-receiver average normalized recovery times.
func RenderFigure1(w io.Writer, results []SuiteResult) {
	fmt.Fprintln(w, "Figure 1: per-receiver average normalized recovery time (RTT units)")
	for _, r := range results {
		fmt.Fprintf(w, "Trace %s (CESRM reduction %.0f%%):\n", r.Entry.Name, r.Pair.LatencyReductionPct())
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  Receiver\tSRM\tCESRM\tReduction")
		for _, row := range r.Pair.Figure1() {
			red := 0.0
			if row.SRMMean > 0 {
				red = 100 * (row.SRMMean - row.CESRMMean) / row.SRMMean
			}
			fmt.Fprintf(tw, "  %d\t%.2f\t%.2f\t%.0f%%\n", row.Index, row.SRMMean, row.CESRMMean, red)
		}
		tw.Flush()
	}
}

// RenderFigure2 prints the expedited vs non-expedited latency deltas.
func RenderFigure2(w io.Writer, results []SuiteResult) {
	fmt.Fprintln(w, "Figure 2: CESRM expedited vs non-expedited normalized recovery difference (RTT units)")
	for _, r := range results {
		fmt.Fprintf(w, "Trace %s:\n", r.Entry.Name)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  Receiver\tExpedited\tNon-exp\tDelta")
		for _, row := range r.Pair.Figure2() {
			fmt.Fprintf(tw, "  %d\t%.2f (n=%d)\t%.2f (n=%d)\t%.2f\n",
				row.Index, row.ExpeditedMean, row.ExpeditedCount, row.NormalMean, row.NormalCount, row.Delta)
		}
		tw.Flush()
	}
}

// renderCounts prints a Figure 3/4 style per-host packet count table.
func renderCounts(w io.Writer, results []SuiteResult, title string, rows func(*Pair) []PacketCountRow) {
	fmt.Fprintln(w, title)
	for _, r := range results {
		fmt.Fprintf(w, "Trace %s:\n", r.Entry.Name)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  Host\tSRM(mcast)\tCESRM(mcast)\tCESRM-EXP")
		for _, row := range rows(r.Pair) {
			fmt.Fprintf(tw, "  %d\t%d\t%d\t%d\n", row.Index, row.SRM, row.CESRMMulticast, row.CESRMExpedited)
		}
		tw.Flush()
	}
}

// RenderFigure3 prints per-host request packet counts.
func RenderFigure3(w io.Writer, results []SuiteResult) {
	renderCounts(w, results, "Figure 3: request packets sent per host",
		func(p *Pair) []PacketCountRow { return p.Figure3() })
}

// RenderFigure4 prints per-host reply packet counts.
func RenderFigure4(w io.Writer, results []SuiteResult) {
	renderCounts(w, results, "Figure 4: reply packets sent per host",
		func(p *Pair) []PacketCountRow { return p.Figure4() })
}

// RenderFigure5 prints expedited success percentages and transmission
// overhead ratios per trace.
func RenderFigure5(w io.Writer, results []SuiteResult) {
	fmt.Fprintln(w, "Figure 5: CESRM expedited success and transmission overhead relative to SRM")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "#\tTrace\tExpSuccess\tRetrans%\tCtlMcast%\tCtlUcast%\tCtlTotal%")
	for _, r := range results {
		succ, ok := r.Pair.ExpeditedSuccess()
		succStr := "n/a"
		if ok {
			succStr = fmt.Sprintf("%.1f%%", succ)
		}
		o := r.Pair.Overhead()
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.1f\t%.1f\t%.1f\t%.1f\n",
			r.Entry.Index, r.Entry.Name, succStr,
			o.RetransPct, o.ControlMulticastPct, o.ControlUnicastPct, o.ControlTotalPct())
	}
	tw.Flush()
}

// RenderSummary prints the headline comparison per trace.
func RenderSummary(w io.Writer, results []SuiteResult) {
	fmt.Fprintln(w, "Summary: CESRM vs SRM (paper: ~50% latency reduction, 30-80% of retransmissions)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "#\tTrace\tSRM RTTs\tCESRM RTTs\tReduction\tSRM 1st-round\tExpSucc")
	for _, r := range results {
		p := r.Pair
		s := p.SRM.Collector.OverallNormalized(p.SRM.RTT)
		c := p.CESRM.Collector.OverallNormalized(p.CESRM.RTT)
		fr := p.SRM.Collector.FirstRoundNormalized(p.SRM.RTT)
		succ, _ := p.ExpeditedSuccess()
		fmt.Fprintf(tw, "%d\t%s\t%.2f\t%.2f\t%.0f%%\t%.2f\t%.0f%%\n",
			r.Entry.Index, r.Entry.Name, s.MeanRTT, c.MeanRTT, p.LatencyReductionPct(), fr.MeanRTT, succ)
	}
	tw.Flush()
}

// RenderFingerprints prints each trace's run fingerprints. Identical
// configurations must print identical fingerprints across processes and
// machines; comparing this section across code revisions proves a
// change behavior-preserving.
func RenderFingerprints(w io.Writer, results []SuiteResult) {
	fmt.Fprintln(w, "Fingerprints: canonical determinism digests per run (stable across processes)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "#\tTrace\tSRM\tCESRM")
	for _, r := range results {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\n",
			r.Entry.Index, r.Entry.Name, r.Pair.SRM.Fingerprint, r.Pair.CESRM.Fingerprint)
	}
	tw.Flush()
}

// RenderCosts writes the cost ledger: one line of exact work counts per
// run, each a pure function of trace, protocol and seed, so a change's
// effect on work done reads as a diff that host noise cannot move. The
// columns are the engine's events executed, records allocated (which is
// also its pending high-water) and records re-filed by cascades; the
// flood delivery events the network allocated; link crossings by class
// (data, session, then payload and control by multicast, unicast and
// subcast); plan cache hits, misses and refused misses; queue drops;
// host deliveries through hop cohorts and through every other path; the
// session and reply cohort deliveries the member group served inline;
// the per-packet cells the release scans read; the reply timers
// requests armed; the validator's audit cells at their peak; plans the
// cache evicted; and the most losses one host held unrecovered at once.
func RenderCosts(w io.Writer, results []SuiteResult) {
	fmt.Fprintln(w, "Costs: exact work counts per run")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "#\tTrace\tProto\tevents\trecords\tcascades\tfloods\tdata\tsession\tpay-mc\tpay-uc\tpay-sc\tctl-mc\tctl-uc\tctl-sc\thits\tmisses\trefused\tqdrops\tcohort\tperhost\tinline\tinline-reply\trelease-cells\treply-armed\taudit-cells\tevictions\tpeak-out")
	for _, r := range results {
		for _, run := range []*RunResult{r.Pair.SRM, r.Pair.CESRM} {
			e, c, p := run.Engine, run.Crossings, run.PlanStats
			fmt.Fprintf(tw, "%d\t%s\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				r.Entry.Index, r.Entry.Name, run.Config.Protocol, e.Executed, e.Allocated, e.Cascaded, run.FloodEvents,
				c.Data, c.Session, c.PayloadMulticast, c.PayloadUnicast, c.PayloadSubcast, c.ControlMulticast, c.ControlUnicast, c.ControlSubcast,
				p.Hits, p.Misses, p.Refused, run.QueueDrops, run.Deliveries.Cohort, run.Deliveries.PerHost, run.Inline, run.InlineReply, run.WatermarkCells, run.RepliesArmed, run.AuditCells, p.Evictions, run.PeakOutstanding)
		}
	}
	tw.Flush()
}

// RenderAll writes every table and figure to w.
func RenderAll(w io.Writer, results []SuiteResult) {
	sections := []func(io.Writer, []SuiteResult){
		RenderTable1, RenderSec42, RenderSummary, RenderFigure1,
		RenderFigure2, RenderFigure3, RenderFigure4, RenderFigure5,
		RenderFingerprints,
	}
	for i, f := range sections {
		if i > 0 {
			fmt.Fprintln(w, strings.Repeat("-", 72))
		}
		f(w, results)
	}
}
