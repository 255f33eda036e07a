// Command cesrm-bench reenacts the paper's trace-driven evaluation (§4):
// it generates the 14 Table 1 traces, runs each under SRM and CESRM, and
// prints every table and figure of the evaluation section.
//
// Usage:
//
//	cesrm-bench [-scale 0.1 [-scale 1 ...]] [-seed 1] [-traces 1,4,7] [-trace WRN] [-section all]
//	            [-delay 20ms] [-lossy] [-policy most-recent] [-router-assist]
//	            [-json BENCH_seed1.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
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
// -json writes a machine-readable summary: one entry per swept scale,
// each with per-trace determinism fingerprints, headline metrics,
// per-trace wall time, and a perf block (wall time, allocation counters,
// peak heap) — so BENCH_*.json files taken on different code revisions
// can be diffed: identical fingerprints prove a change
// behavior-preserving, diverging metrics quantify what moved, and the
// perf blocks track the cost trajectory (see cmd/benchdiff).
//
// -cpuprofile and -memprofile write pprof profiles of the suite run(s)
// for hot-path analysis (go tool pprof).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/core"
	"cesrm/internal/experiment"
	"cesrm/internal/netsim"
	"cesrm/internal/srm"
	"cesrm/internal/trace"
)

// benchJSON is the -json output schema: one run entry per swept scale.
type benchJSON struct {
	Seed        int64          `json:"seed"`
	Fingerprint string         `json:"fingerprint_version"`
	GoVersion   string         `json:"go_version"`
	Runs        []benchRunJSON `json:"runs"`
}

// benchRunJSON records one scale's full suite pass.
type benchRunJSON struct {
	Scale  float64          `json:"scale"`
	Perf   benchPerfJSON    `json:"perf"`
	Traces []benchTraceJSON `json:"traces"`
}

// benchPerfJSON records the cost of the suite pass that produced the
// entry. Mallocs and AllocBytes are exact allocation counters
// (runtime.MemStats deltas) and are stable across runs of the same
// binary; ElapsedNS is wall time and PeakHeapBytes is a sampled
// live-heap high-water mark — both vary with the machine. Comparing
// these blocks across code revisions — with identical fingerprints
// proving the runs behaviorally equal — quantifies a perf change.
// With Repeats > 1 the suite pass runs that many times: ElapsedNS is
// the median pass (single-shot smoke runs are far too noisy to gate
// tightly), PeakHeapBytes the maximum, and the allocation counters come
// from the first pass. Shards records the intra-run dispatch mode
// (0/1 = serial) and GOMAXPROCS the cores the process could use —
// wall-time comparisons across snapshots are only meaningful between
// matching values.
type benchPerfJSON struct {
	ElapsedNS     int64  `json:"suite_elapsed_ns"`
	Mallocs       uint64 `json:"suite_mallocs"`
	AllocBytes    uint64 `json:"suite_alloc_bytes"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	Parallel      int    `json:"parallel"`
	Shards        int    `json:"shards,omitempty"`
	GOMAXPROCS    int    `json:"gomaxprocs,omitempty"`
	Repeats       int    `json:"repeats,omitempty"`
	// Flood plan cache counters, summed over the pass's runs (both
	// protocols, all traces). Zero/omitted when the cache is disabled.
	PlanHits      uint64 `json:"plan_hits,omitempty"`
	PlanMisses    uint64 `json:"plan_misses,omitempty"`
	PlanEvictions uint64 `json:"plan_evictions,omitempty"`
	// Robustness counters, summed over the pass's runs: congestion tail
	// drops at finite link queues, bounded-retry abandonments and
	// membership (leave/join) events. Zero/omitted unless the base
	// configuration engages queue caps or churn; benchdiff reports
	// movement informationally without gating.
	QueueDrops  uint64 `json:"queue_drops,omitempty"`
	Abandoned   int    `json:"abandoned,omitempty"`
	ChurnEvents int    `json:"churn_events,omitempty"`
}

type benchTraceJSON struct {
	Index               int     `json:"index"`
	Name                string  `json:"name"`
	SRMFingerprint      string  `json:"srm_fingerprint"`
	CESRMFingerprint    string  `json:"cesrm_fingerprint"`
	SRMMeanRTT          float64 `json:"srm_mean_rtt"`
	CESRMMeanRTT        float64 `json:"cesrm_mean_rtt"`
	LatencyReductionPct float64 `json:"latency_reduction_pct"`
	ExpeditedSuccessPct float64 `json:"expedited_success_pct"`
	SRMFinishedAtNS     int64   `json:"srm_finished_at_ns"`
	CESRMFinishedAtNS   int64   `json:"cesrm_finished_at_ns"`
	WallNS              int64   `json:"wall_ns"`
}

func benchRun(scale float64, perf benchPerfJSON, results []experiment.SuiteResult) benchRunJSON {
	out := benchRunJSON{Scale: scale, Perf: perf}
	var plans netsim.PlanStats
	for _, r := range results {
		p := r.Pair
		plans.Add(p.SRM.PlanStats)
		plans.Add(p.CESRM.PlanStats)
		out.Perf.QueueDrops += p.SRM.QueueDrops + p.CESRM.QueueDrops
		out.Perf.Abandoned += p.SRM.Abandoned + p.CESRM.Abandoned
		out.Perf.ChurnEvents += p.SRM.ChurnEvents + p.CESRM.ChurnEvents
		succ, _ := p.ExpeditedSuccess()
		out.Traces = append(out.Traces, benchTraceJSON{
			Index:               r.Entry.Index,
			Name:                r.Entry.Name,
			SRMFingerprint:      r.SRMFingerprint,
			CESRMFingerprint:    r.CESRMFingerprint,
			SRMMeanRTT:          p.SRM.Collector.OverallNormalized(p.SRM.RTT).MeanRTT,
			CESRMMeanRTT:        p.CESRM.Collector.OverallNormalized(p.CESRM.RTT).MeanRTT,
			LatencyReductionPct: p.LatencyReductionPct(),
			ExpeditedSuccessPct: succ,
			SRMFinishedAtNS:     int64(p.SRM.FinishedAt),
			CESRMFinishedAtNS:   int64(p.CESRM.FinishedAt),
			WallNS:              r.Elapsed.Nanoseconds(),
		})
	}
	out.Perf.PlanHits = plans.Hits
	out.Perf.PlanMisses = plans.Misses
	out.Perf.PlanEvictions = plans.Evictions
	return out
}

func writeJSON(path string, out benchJSON) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// medianDuration returns the median of ds (lower middle on even
// counts); ds must be non-empty and is reordered in place.
func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[(len(ds)-1)/2]
}

// scaleFlag collects repeated (or comma-separated) -scale values.
type scaleFlag []float64

func (s *scaleFlag) String() string {
	parts := make([]string, len(*s))
	for i, v := range *s {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

func (s *scaleFlag) Set(v string) error {
	for _, f := range strings.Split(v, ",") {
		x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return fmt.Errorf("bad scale %q: %w", f, err)
		}
		if x <= 0 {
			return fmt.Errorf("scale %v must be positive", x)
		}
		*s = append(*s, x)
	}
	return nil
}

// nameFlag collects repeated (or comma-separated) -trace name filters.
type nameFlag []string

func (n *nameFlag) String() string { return strings.Join(*n, ",") }

func (n *nameFlag) Set(v string) error {
	for _, f := range strings.Split(v, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			return fmt.Errorf("empty trace name filter")
		}
		*n = append(*n, f)
	}
	return nil
}

// selectTraces resolves the -traces index list and -trace name filters
// to a sorted, deduplicated list of 1-based catalog indices. An empty
// selection (no flags) returns nil, meaning all traces.
func selectTraces(indexList string, names nameFlag) ([]int, error) {
	pick := make(map[int]bool)
	any := false
	if indexList != "" {
		any = true
		for _, f := range strings.Split(indexList, ",") {
			i, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("bad trace index %q: %w", f, err)
			}
			pick[i] = true
		}
	}
	if len(names) > 0 {
		any = true
		for _, name := range names {
			matched := false
			for _, e := range trace.Catalog {
				if strings.Contains(strings.ToLower(e.Name), strings.ToLower(name)) {
					pick[e.Index] = true
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("-trace %q matches no catalog trace", name)
			}
		}
	}
	if !any {
		return nil, nil
	}
	var out []int
	for _, e := range trace.Catalog {
		if pick[e.Index] {
			out = append(out, e.Index)
			delete(pick, e.Index)
		}
	}
	// Whatever remains never matched a catalog entry; keep it so the
	// suite reports the out-of-range index.
	for i := range pick {
		out = append(out, i)
	}
	return out, nil
}

// heapSampler tracks the live-heap high-water mark while a suite pass
// runs. Two probes feed one monotonic atomic maximum: a coarse
// wall-clock ticker, and the runner's per-monitor-tick HeapProbe
// (experiment.RunConfig.HeapProbe), which fires on the run's own event
// cadence. The ticker alone under-reported badly: a spike living
// shorter than the 20 ms period — or landing while the sampler
// goroutine was descheduled — was simply never seen, and the reported
// "peak" was whatever the ticker happened to catch. The in-run probe
// cannot miss the allocation profile of the simulation itself, because
// it samples from inside it. Both read /memory/classes/heap/objects:bytes
// via runtime/metrics, which needs no stop-the-world and is cheap
// enough for event-cadence use. Probe is safe for concurrent use —
// Suite runs traces in parallel.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

// readHeapBytes returns the bytes currently occupied by live + dead
// heap objects (the runtime/metrics equivalent of MemStats.HeapAlloc).
func readHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// Probe folds the current heap occupancy into the high-water mark.
func (s *heapSampler) Probe() {
	v := readHeapBytes()
	for {
		old := s.peak.Load()
		if v <= old || s.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func startHeapSampler(interval time.Duration) *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.Probe()
			}
		}
	}()
	return s
}

// Stop halts sampling and returns the peak observed live heap, folding
// in one final sample so short passes never report zero.
func (s *heapSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	s.Probe()
	return s.peak.Load()
}

// runChaosMatrix sweeps the deterministic fault-injection scenario
// matrix (see chaos.Scenarios) over every selected trace under SRM and
// CESRM. Each run executes with the online invariant validator armed —
// post-crash silence, live-receiver reliability, bounded SRM fallback —
// so a scenario that violates the fail-stop model fails the sweep. The
// printed fingerprints are reproducible: same seed, same spec, same
// digest.
func runChaosMatrix(indices []int, scale float64, seed int64, netCfg netsim.Config, cesrmCfg core.Config, lossy bool) error {
	if indices == nil {
		for _, e := range trace.Catalog {
			indices = append(indices, e.Index)
		}
	}
	fmt.Printf("cesrm-bench: chaos scenario matrix, scale=%v seed=%d\n\n", scale, seed)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
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
				res, err := experiment.Run(experiment.RunConfig{
					Trace:         tr,
					Protocol:      proto,
					Net:           netCfg,
					CESRM:         cesrmCfg,
					LossyRecovery: lossy,
					Seed:          seed + int64(idx),
					Chaos:         spec,
				})
				if err != nil {
					return fmt.Errorf("trace %s scenario %s/%s: %w", entry.Name, spec.Name, proto, err)
				}
				fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%v\t%s\n",
					idx, entry.Name, spec.Name, proto, res.FinishedAt, res.Fingerprint)
			}
		}
	}
	tw.Flush()
	fmt.Println("\nall scenarios completed with invariants green")
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cesrm-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cesrm-bench", flag.ContinueOnError)
	var scales scaleFlag
	fs.Var(&scales, "scale", "trace volume scale (> 0); 1 = full Table 1 volumes, 5 = a 5x extrapolation; repeatable (or comma-separated) to sweep")
	seed := fs.Int64("seed", 1, "base random seed")
	traces := fs.String("traces", "", "comma-separated 1-based trace indices (default: all 14)")
	var traceNames nameFlag
	fs.Var(&traceNames, "trace", "trace name filter (case-insensitive substring); repeatable, unioned with -traces")
	section := fs.String("section", "all", "output section: all, table1, sec42, summary, fig1, fig2, fig3, fig4, fig5, fig1bars, fig5bars, compare, fingerprints")
	delay := fs.Duration("delay", 20*time.Millisecond, "per-link one-way delay")
	lossy := fs.Bool("lossy", false, "drop recovery traffic with estimated link loss rates")
	policy := fs.String("policy", "most-recent", "CESRM expedition policy: most-recent or most-frequent")
	routerAssist := fs.Bool("router-assist", false, "enable the router-assisted CESRM variant (§3.3)")
	parallel := fs.Int("parallel", runtime.NumCPU(), "max traces simulating concurrently (1 = serial)")
	shards := fs.Int("shards", 0, "intra-run dispatch shards per simulation (0 or 1 = serial, < 0 = GOMAXPROCS); fingerprints are identical at any value")
	repeat := fs.Int("repeat", 1, "suite passes per scale; the JSON perf block records the median wall time")
	chaosMatrix := fs.Bool("chaos-matrix", false, "run the deterministic fault-injection scenario matrix per selected trace (instead of the figure suite) and report per-scenario fingerprints")
	jsonPath := fs.String("json", "", "also write a machine-readable summary (fingerprints + headline metrics + perf, one entry per scale) to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the suite run(s) to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile taken after the suite run(s) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(scales) == 0 {
		scales = scaleFlag{0.1}
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat %d must be >= 1", *repeat)
	}
	shardsVal := *shards
	if shardsVal < 0 {
		shardsVal = runtime.GOMAXPROCS(0)
	}

	indices, err := selectTraces(*traces, traceNames)
	if err != nil {
		return err
	}

	netCfg := netsim.DefaultConfig()
	netCfg.LinkDelay = *delay

	cesrmCfg := core.Config{RouterAssist: *routerAssist}
	switch *policy {
	case "most-recent":
		cesrmCfg.Policy = core.MostRecentLoss{}
	case "most-frequent":
		cesrmCfg.Policy = core.MostFrequentLoss{}
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	if *chaosMatrix {
		if len(scales) > 1 {
			return fmt.Errorf("-chaos-matrix takes a single -scale")
		}
		return runChaosMatrix(indices, scales[0], *seed, netCfg, cesrmCfg, *lossy)
	}

	out := benchJSON{
		Seed:        *seed,
		Fingerprint: fmt.Sprintf("v%d", experiment.FingerprintVersion),
		GoVersion:   runtime.Version(),
	}
	for si, scale := range scales {
		suite := experiment.Suite{
			Scale:    scale,
			Seed:     *seed,
			Traces:   indices,
			Parallel: *parallel,
			Base: experiment.RunConfig{
				Net:           netCfg,
				CESRM:         cesrmCfg,
				LossyRecovery: *lossy,
				Shards:        shardsVal,
			},
		}
		if si > 0 {
			fmt.Println(strings.Repeat("=", 72))
			// Isolate sweep entries from one another: return the previous
			// pass's heap to the OS so each scale's perf block reflects a
			// near-fresh process rather than the prior pass's heap layout
			// and GC pacing (which otherwise distorts wall time severely
			// on memory-pressured machines).
			debug.FreeOSMemory()
		}
		fmt.Printf("cesrm-bench: scale=%v seed=%d delay=%v lossy=%v policy=%s router-assist=%v shards=%d\n\n",
			scale, *seed, *delay, *lossy, *policy, *routerAssist, shardsVal)

		// With -repeat N the pass runs N times; the perf block records
		// the median wall time (smoke-scale single shots are dominated
		// by scheduling noise), the max heap watermark, and the first
		// pass's exact allocation counters. Fingerprints are identical
		// across passes by construction, so the last results render.
		var results []experiment.SuiteResult
		var elapsedAll []time.Duration
		var peak uint64
		var mallocs, allocBytes uint64
		for pass := 0; pass < *repeat; pass++ {
			if pass > 0 {
				debug.FreeOSMemory()
			}
			sampler := startHeapSampler(20 * time.Millisecond)
			suite.Base.HeapProbe = sampler.Probe
			var m0 runtime.MemStats
			runtime.ReadMemStats(&m0)
			started := time.Now()
			res, err := suite.Run()
			elapsedAll = append(elapsedAll, time.Since(started))
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			if p := sampler.Stop(); p > peak {
				peak = p
			}
			if err != nil {
				return err
			}
			if pass == 0 {
				mallocs = m1.Mallocs - m0.Mallocs
				allocBytes = m1.TotalAlloc - m0.TotalAlloc
			}
			results = res
		}
		elapsed := medianDuration(elapsedAll)

		switch *section {
		case "all":
			experiment.RenderAll(os.Stdout, results)
		case "table1":
			experiment.RenderTable1(os.Stdout, results)
		case "sec42":
			experiment.RenderSec42(os.Stdout, results)
		case "summary":
			experiment.RenderSummary(os.Stdout, results)
		case "fig1":
			experiment.RenderFigure1(os.Stdout, results)
		case "fig2":
			experiment.RenderFigure2(os.Stdout, results)
		case "fig3":
			experiment.RenderFigure3(os.Stdout, results)
		case "fig4":
			experiment.RenderFigure4(os.Stdout, results)
		case "fig5":
			experiment.RenderFigure5(os.Stdout, results)
		case "fig1bars":
			experiment.RenderFigure1Bars(os.Stdout, results)
		case "fig5bars":
			experiment.RenderFigure5Bars(os.Stdout, results)
		case "compare":
			experiment.RenderComparison(os.Stdout, results, *seed)
		case "fingerprints":
			experiment.RenderFingerprints(os.Stdout, results)
		default:
			return fmt.Errorf("unknown section %q", *section)
		}

		out.Runs = append(out.Runs, benchRun(scale, benchPerfJSON{
			ElapsedNS:     elapsed.Nanoseconds(),
			Mallocs:       mallocs,
			AllocBytes:    allocBytes,
			PeakHeapBytes: peak,
			Parallel:      *parallel,
			Shards:        shardsVal,
			GOMAXPROCS:    runtime.GOMAXPROCS(0),
			Repeats:       *repeat,
		}, results))
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		runtime.GC() // materialize the allocation profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, out); err != nil {
			return err
		}
	}
	return nil
}
