// Command benchdiff compares two cesrm-bench -json snapshots — typically
// a freshly generated one against a committed BENCH_*.json — and fails
// (exit 1) when the fresh run regresses.
//
// Usage:
//
//	benchdiff -committed BENCH_scale1_stream.json -fresh bench-snapshot.json \
//	          [-scale 0.01] [-max-regression-pct 25] [-max-mem-regression-pct 25] \
//	          [-ignore-fingerprints]
//
// Three gates:
//
//  1. Behavior: every trace present in both snapshots at the compared
//     scale must carry identical SRM and CESRM fingerprints. A mismatch
//     means the change is not behavior-preserving and the committed
//     snapshot (and its perf claims) no longer describe the current
//     code.
//  2. Performance: the fresh suite wall time must not exceed the
//     committed one by more than -max-regression-pct percent. Wall time
//     is machine-dependent, so the gate is deliberately loose; it
//     catches order-of-magnitude scheduler regressions, not percent
//     drift. The gate only fires when both snapshots were taken under
//     the same dispatch config (shards and GOMAXPROCS); otherwise the
//     wall times measure different executions and the comparison is
//     reported but not gated. Snapshots predating those fields read as
//     serial on an unrecorded core count and keep gating.
//  3. Memory: the fresh peak live heap must not exceed the committed
//     one by more than -max-mem-regression-pct percent. Peak heap is
//     far more stable than wall time (allocation volume is
//     deterministic; only GC timing jitters the watermark), so this
//     gate reliably catches a reintroduced retained-state leak — the
//     scale-1 suite once peaked over 4 GB before per-packet state was
//     released mid-run. Skipped when either snapshot predates the
//     peak_heap_bytes field.
//
// -scale selects which swept scale entry to compare; 0 (the default)
// picks the smallest scale present in both files, which for CI is the
// smoke scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// snapshot is the cesrm-bench -json schema: one run entry per swept
// scale.
type snapshot struct {
	Seed        int64     `json:"seed"`
	Fingerprint string    `json:"fingerprint_version"`
	Runs        []diffRun `json:"runs"`
}

type diffRun struct {
	Scale  float64    `json:"scale"`
	Perf   diffPerf   `json:"perf"`
	Traces []diffItem `json:"traces"`
}

type diffPerf struct {
	ElapsedNS     int64  `json:"suite_elapsed_ns"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	Parallel      int    `json:"parallel"`
	Shards        int    `json:"shards"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Repeats       int    `json:"repeats"`
	PlanHits      uint64 `json:"plan_hits"`
	PlanMisses    uint64 `json:"plan_misses"`
	PlanEvictions uint64 `json:"plan_evictions"`
	QueueDrops    uint64 `json:"queue_drops"`
	Abandoned     int    `json:"abandoned"`
	ChurnEvents   int    `json:"churn_events"`
}

// config renders the execution shape behind a perf block. Snapshots
// predating the sharded-dispatch schema carry zeros, which mean serial
// dispatch on an unrecorded core count.
func (p diffPerf) config() string {
	shards := p.Shards
	if shards == 0 {
		shards = 1
	}
	procs := "?"
	if p.GOMAXPROCS > 0 {
		procs = fmt.Sprint(p.GOMAXPROCS)
	}
	reps := p.Repeats
	if reps == 0 {
		reps = 1
	}
	return fmt.Sprintf("shards=%d procs=%s repeats=%d", shards, procs, reps)
}

// comparableWall reports whether two perf blocks were taken under the
// same dispatch mode and core count, i.e. whether their wall times
// measure the same thing. Unrecorded (zero) GOMAXPROCS matches anything
// so pre-schema snapshots keep gating.
func comparableWall(a, b diffPerf) bool {
	sa, sb := a.Shards, b.Shards
	if sa == 0 {
		sa = 1
	}
	if sb == 0 {
		sb = 1
	}
	if sa != sb {
		return false
	}
	return a.GOMAXPROCS == 0 || b.GOMAXPROCS == 0 || a.GOMAXPROCS == b.GOMAXPROCS
}

type diffItem struct {
	Index            int    `json:"index"`
	Name             string `json:"name"`
	SRMFingerprint   string `json:"srm_fingerprint"`
	CESRMFingerprint string `json:"cesrm_fingerprint"`
	WallNS           int64  `json:"wall_ns"`
}

// load reads a snapshot.
func load(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs recorded", path)
	}
	return &s, nil
}

// pickRun returns the run entry at the given scale, or, when scale is 0,
// the entry with the smallest scale.
func pickRun(s *snapshot, scale float64) (*diffRun, error) {
	if scale == 0 {
		best := &s.Runs[0]
		for i := range s.Runs[1:] {
			if s.Runs[i+1].Scale < best.Scale {
				best = &s.Runs[i+1]
			}
		}
		return best, nil
	}
	for i := range s.Runs {
		if s.Runs[i].Scale == scale {
			return &s.Runs[i], nil
		}
	}
	return nil, fmt.Errorf("no run at scale %v (have %v)", scale, scales(s))
}

func scales(s *snapshot) []float64 {
	out := make([]float64, len(s.Runs))
	for i := range s.Runs {
		out[i] = s.Runs[i].Scale
	}
	return out
}

// diff compares the two run entries and returns the gate failures.
func diff(committed, fresh *diffRun, maxRegressionPct, maxMemRegressionPct float64, checkFingerprints bool) []string {
	var fails []string
	if checkFingerprints {
		byIndex := make(map[int]diffItem, len(committed.Traces))
		for _, tr := range committed.Traces {
			byIndex[tr.Index] = tr
		}
		compared := 0
		for _, fr := range fresh.Traces {
			cm, ok := byIndex[fr.Index]
			if !ok {
				continue
			}
			compared++
			if cm.SRMFingerprint != fr.SRMFingerprint {
				fails = append(fails, fmt.Sprintf(
					"trace %d (%s): SRM fingerprint %s != committed %s",
					fr.Index, fr.Name, fr.SRMFingerprint, cm.SRMFingerprint))
			}
			if cm.CESRMFingerprint != fr.CESRMFingerprint {
				fails = append(fails, fmt.Sprintf(
					"trace %d (%s): CESRM fingerprint %s != committed %s",
					fr.Index, fr.Name, fr.CESRMFingerprint, cm.CESRMFingerprint))
			}
		}
		if compared == 0 {
			fails = append(fails, "no trace appears in both snapshots; nothing compared")
		}
	}
	if committed.Perf.ElapsedNS > 0 {
		pct := 100 * (float64(fresh.Perf.ElapsedNS) - float64(committed.Perf.ElapsedNS)) /
			float64(committed.Perf.ElapsedNS)
		if !comparableWall(committed.Perf, fresh.Perf) {
			// Different dispatch mode or core count: the wall times measure
			// different executions, so the regression gate would be noise.
			fmt.Printf("wall time: committed %.3fs (%s), fresh %.3fs (%s) — configs differ, gate skipped\n",
				float64(committed.Perf.ElapsedNS)/1e9, committed.Perf.config(),
				float64(fresh.Perf.ElapsedNS)/1e9, fresh.Perf.config())
		} else {
			verdict := "ok"
			if pct > maxRegressionPct {
				verdict = "FAIL"
				fails = append(fails, fmt.Sprintf(
					"suite wall time regressed %.1f%% (%.3fs -> %.3fs), budget %.0f%%",
					pct, float64(committed.Perf.ElapsedNS)/1e9, float64(fresh.Perf.ElapsedNS)/1e9,
					maxRegressionPct))
			}
			fmt.Printf("wall time: committed %.3fs, fresh %.3fs (%+.1f%%, budget +%.0f%%) [%s] %s\n",
				float64(committed.Perf.ElapsedNS)/1e9, float64(fresh.Perf.ElapsedNS)/1e9,
				pct, maxRegressionPct, fresh.Perf.config(), verdict)
		}
	}
	if committed.Perf.PeakHeapBytes > 0 && fresh.Perf.PeakHeapBytes > 0 &&
		!comparableWall(committed.Perf, fresh.Perf) {
		// Sharded dispatch legitimately holds more live state (per-shard
		// op logs and queues), so cross-config peak heap is informational.
		fmt.Printf("peak heap: committed %.1f MB (%s), fresh %.1f MB (%s) — configs differ, gate skipped\n",
			float64(committed.Perf.PeakHeapBytes)/1e6, committed.Perf.config(),
			float64(fresh.Perf.PeakHeapBytes)/1e6, fresh.Perf.config())
	} else if committed.Perf.PeakHeapBytes > 0 && fresh.Perf.PeakHeapBytes > 0 {
		pct := 100 * (float64(fresh.Perf.PeakHeapBytes) - float64(committed.Perf.PeakHeapBytes)) /
			float64(committed.Perf.PeakHeapBytes)
		verdict := "ok"
		if pct > maxMemRegressionPct {
			verdict = "FAIL"
			fails = append(fails, fmt.Sprintf(
				"peak heap regressed %.1f%% (%.1f MB -> %.1f MB), budget %.0f%%",
				pct, float64(committed.Perf.PeakHeapBytes)/1e6, float64(fresh.Perf.PeakHeapBytes)/1e6,
				maxMemRegressionPct))
		}
		fmt.Printf("peak heap: committed %.1f MB, fresh %.1f MB (%+.1f%%, budget +%.0f%%) %s\n",
			float64(committed.Perf.PeakHeapBytes)/1e6, float64(fresh.Perf.PeakHeapBytes)/1e6,
			pct, maxMemRegressionPct, verdict)
	}
	// Flood plan cache counters are deterministic (a pure function of the
	// run configuration), so they are reported rather than gated: a hit
	// rate collapsing across revisions is a perf smell the wall-time gate
	// will confirm.
	if c, f := committed.Perf, fresh.Perf; c.PlanHits+c.PlanMisses > 0 || f.PlanHits+f.PlanMisses > 0 {
		fmt.Printf("flood plans: committed %d hits / %d misses / %d evictions, fresh %d / %d / %d\n",
			c.PlanHits, c.PlanMisses, c.PlanEvictions, f.PlanHits, f.PlanMisses, f.PlanEvictions)
	}
	// Robustness counters are likewise deterministic and reported without
	// gating: queue drops and abandonments move only when the base
	// configuration engages queue caps or membership churn, and a
	// behavior-preserving change keeps them pinned via the fingerprints.
	if c, f := committed.Perf, fresh.Perf; c.QueueDrops+f.QueueDrops > 0 ||
		c.Abandoned+f.Abandoned > 0 || c.ChurnEvents+f.ChurnEvents > 0 {
		fmt.Printf("robustness: committed %d queue drops / %d abandoned / %d churn events, fresh %d / %d / %d\n",
			c.QueueDrops, c.Abandoned, c.ChurnEvents, f.QueueDrops, f.Abandoned, f.ChurnEvents)
	}
	return fails
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	committedPath := fs.String("committed", "", "committed BENCH_*.json snapshot (required)")
	freshPath := fs.String("fresh", "", "freshly generated cesrm-bench -json snapshot (required)")
	scale := fs.Float64("scale", 0, "scale entry to compare (0 = smallest scale present in both)")
	maxRegression := fs.Float64("max-regression-pct", 25, "max tolerated suite wall-time increase, percent")
	maxMemRegression := fs.Float64("max-mem-regression-pct", 25, "max tolerated peak-heap increase, percent")
	ignoreFP := fs.Bool("ignore-fingerprints", false, "skip the fingerprint-equality and schema-version gates (cross-revision perf comparisons)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *committedPath == "" || *freshPath == "" {
		return fmt.Errorf("both -committed and -fresh are required")
	}

	committed, err := load(*committedPath)
	if err != nil {
		return err
	}
	fresh, err := load(*freshPath)
	if err != nil {
		return err
	}
	if committed.Fingerprint != fresh.Fingerprint && !*ignoreFP {
		// Cross-version perf comparisons (e.g. v1-era wall times against a
		// v2 run) are legitimate under -ignore-fingerprints: wall time and
		// peak heap are schema-independent.
		return fmt.Errorf("fingerprint schema %s (committed) != %s (fresh); snapshots are not comparable (use -ignore-fingerprints for perf-only comparison)",
			committed.Fingerprint, fresh.Fingerprint)
	}

	pickScale := *scale
	if pickScale == 0 {
		// Smallest scale present in BOTH files: intersect, then min.
		have := make(map[float64]bool)
		for _, r := range committed.Runs {
			have[r.Scale] = true
		}
		for _, r := range fresh.Runs {
			if have[r.Scale] && (pickScale == 0 || r.Scale < pickScale) {
				pickScale = r.Scale
			}
		}
		if pickScale == 0 {
			return fmt.Errorf("snapshots share no scale (committed %v, fresh %v)",
				scales(committed), scales(fresh))
		}
	}
	cr, err := pickRun(committed, pickScale)
	if err != nil {
		return fmt.Errorf("%s: %w", *committedPath, err)
	}
	fr, err := pickRun(fresh, pickScale)
	if err != nil {
		return fmt.Errorf("%s: %w", *freshPath, err)
	}
	if committed.Seed != fresh.Seed {
		return fmt.Errorf("seed %d (committed) != %d (fresh); fingerprints would differ by construction",
			committed.Seed, fresh.Seed)
	}

	fmt.Printf("benchdiff: scale=%v, %d committed traces vs %d fresh\n",
		pickScale, len(cr.Traces), len(fr.Traces))
	fails := diff(cr, fr, *maxRegression, *maxMemRegression, !*ignoreFP)
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "benchdiff: FAIL:", f)
		}
		return fmt.Errorf("%d gate failure(s)", len(fails))
	}
	fmt.Println("benchdiff: PASS")
	return nil
}
