package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of one end-to-end metric on one workload.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a candidate's passes with a baseline's for one metric.
// The candidate is worse when its median is worse than the baseline's by
// more than the bound. When either side's own spread is wider than the
// bound and the two sides' runs overlap, the runs cannot tell a change
// from noise: the row is unresolved, neither ok nor worse.
func judge(m metricSpec, bound float64, base, cand []float64) string {
	worse := worsening(m.Better, median(base), median(cand)) > bound
	if spread(base) > bound || spread(cand) > bound {
		b, c := sorted(base), sorted(cand)
		if b[0] <= c[len(c)-1] && c[0] <= b[len(b)-1] {
			return verdictUnresolved
		}
	}
	if worse {
		return verdictWorse
	}
	return verdictOK
}

// compareFiles prints, per workload, one row per end-to-end metric with
// both medians, the bound and the verdict, then whether the simulated
// results (fingerprints, crossing counts, model statistics) are
// identical. It returns an error when any row is worse or the files
// cannot be compared.
func compareFiles(w io.Writer, basePath, candPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline  %s: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %d passes\n",
		basePath, base.Commit, base.GoVersion, base.NumCPU, base.GOMAXPROCS, base.Seed, base.Passes)
	fmt.Fprintf(w, "candidate %s: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %d passes\n",
		candPath, cand.Commit, cand.GoVersion, cand.NumCPU, cand.GOMAXPROCS, cand.Seed, cand.Passes)
	if base.Seed != cand.Seed || base.GOMAXPROCS != cand.GOMAXPROCS {
		return fmt.Errorf("the files differ in seed or GOMAXPROCS and cannot be compared")
	}

	candBy := map[string]*workloadResult{}
	for _, r := range cand.Workloads {
		candBy[r.Name] = r
	}
	worseRows := 0
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline\tcandidate\tunit\tchange\tbound\tverdict")
	for _, b := range base.Workloads {
		c := candBy[b.Name]
		if c == nil || b.EndToEnd == nil || c.EndToEnd == nil {
			continue
		}
		for _, m := range endToEnd {
			bs, cs := b.EndToEnd[m.Name], c.EndToEnd[m.Name]
			bound := compareBound(m, b.Name)
			verdict := judge(m, bound, bs.Values, cs.Values)
			if verdict == verdictWorse {
				worseRows++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				b.Name, m.Name, bs.Median, cs.Median, m.Unit,
				100*worsening(m.Better, bs.Median, cs.Median), 100*bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Simulated results are exact for a seed: a host-side change must
	// leave every one of them identical.
	for _, b := range base.Workloads {
		c := candBy[b.Name]
		if c == nil || len(b.Runs) == 0 {
			continue
		}
		differ := len(b.Runs) != len(c.Runs)
		for i := 0; !differ && i < len(b.Runs); i++ {
			x, y := b.Runs[i], c.Runs[i]
			differ = x.Fingerprint != y.Fingerprint || x.Data != y.Data || x.Session != y.Session ||
				x.Recovery != y.Recovery || x.FinishedAtNS != y.FinishedAtNS || x.MeanRTT != y.MeanRTT
		}
		state := "identical"
		if differ {
			state = "DIFFERENT"
		}
		fmt.Fprintf(w, "%s: simulated results (fingerprints, crossings, finish times, recovery latency) %s\n", b.Name, state)
	}
	if worseRows > 0 {
		return fmt.Errorf("%d rows are worse than the baseline by more than their bound", worseRows)
	}
	return nil
}
