package experiment

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cesrm/internal/core"
	"cesrm/internal/trace"
)

// ComparisonRow is one recovery scheme's summary on one trace.
type ComparisonRow struct {
	// Scheme labels the protocol variant.
	Scheme string
	// MeanRTT and P99RTT are normalized recovery latencies.
	MeanRTT, P99RTT float64
	// CostPerLoss is total recovery link crossings divided by the
	// trace's loss count.
	CostPerLoss float64
	// ExpeditedPct is the share of recoveries completed via expedited
	// replies (CESRM variants only).
	ExpeditedPct float64
}

// RunComparison reenacts tr under the four recovery schemes the paper
// discusses — SRM, CESRM, router-assisted CESRM (§3.3) and LMS — with
// identical network conditions and seed, and summarizes each.
func RunComparison(tr *trace.Trace, seed int64) ([]ComparisonRow, error) {
	losses := float64(tr.TotalLosses())
	variants := []struct {
		label string
		run   RunConfig
	}{
		{"SRM", RunConfig{Protocol: SRM}},
		{"CESRM", RunConfig{Protocol: CESRM}},
		{"CESRM-RA", RunConfig{Protocol: CESRM, CESRM: core.Config{RouterAssist: true}}},
		{"LMS", RunConfig{Protocol: LMS}},
	}
	rows := make([]ComparisonRow, 0, len(variants))
	for _, v := range variants {
		rc := v.run
		rc.Trace = tr
		rc.Seed = seed
		res, err := Run(rc)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", v.label, err)
		}
		row := ComparisonRow{
			Scheme:      v.label,
			MeanRTT:     res.Collector.OverallNormalized(res.RTT).MeanRTT,
			P99RTT:      res.Collector.NormalizedPercentile(res.RTT, 0.99),
			CostPerLoss: float64(res.Crossings.RecoveryTotal()) / losses,
		}
		recs := res.Collector.Recoveries()
		if len(recs) > 0 {
			exp := 0
			for _, r := range recs {
				if r.Expedited {
					exp++
				}
			}
			row.ExpeditedPct = 100 * float64(exp) / float64(len(recs))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderComparison prints the four-scheme comparison for each suite
// trace.
func RenderComparison(w io.Writer, results []SuiteResult, seed int64) {
	fmt.Fprintln(w, "Comparison: SRM vs CESRM vs CESRM-RA vs LMS (latency RTT, cost = recovery crossings per loss)")
	for _, r := range results {
		rows, err := RunComparison(r.Pair.Trace, seed)
		if err != nil {
			fmt.Fprintf(w, "Trace %s: error: %v\n", r.Entry.Name, err)
			continue
		}
		fmt.Fprintf(w, "Trace %s:\n", r.Entry.Name)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  scheme\tmean\tp99\tcost/loss\texpedited")
		for _, row := range rows {
			fmt.Fprintf(tw, "  %s\t%.2f\t%.1f\t%.1f\t%.0f%%\n",
				row.Scheme, row.MeanRTT, row.P99RTT, row.CostPerLoss, row.ExpeditedPct)
		}
		tw.Flush()
	}
}
