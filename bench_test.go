// The benchmarks in this file regenerate every table and figure of the paper's
// evaluation (§4) as Go benchmarks: each Benchmark* target corresponds
// to one table or figure and prints the rows/series the paper reports.
//
// The trace-driven suite (14 traces × 2 protocols) is simulated once per
// `go test -bench` process at a reduced volume scale (override with
// CESRM_BENCH_SCALE, 1 = full Table 1 volumes — see cmd/cesrm-bench for
// the standalone harness). Each benchmark then measures the cost of
// regenerating its figure from the protocol runs and prints the series
// once.
package cesrm_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/core"
	"cesrm/internal/experiment"
	"cesrm/internal/lossinfer"
	"cesrm/internal/netsim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

var (
	suiteOnce    sync.Once
	suiteResults []experiment.SuiteResult
	suiteErr     error
)

func benchScale() float64 {
	if s := os.Getenv("CESRM_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 && v <= 1 {
			return v
		}
	}
	return 0.05
}

// suite lazily simulates all 14 catalog traces under both protocols.
func suite(b *testing.B) []experiment.SuiteResult {
	b.Helper()
	suiteOnce.Do(func() {
		s := experiment.Suite{Scale: benchScale(), Seed: 1}
		suiteResults, suiteErr = s.Run()
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteResults
}

// printOnce ensures a benchmark prints its series exactly once across
// all b.N iterations and -benchtime rounds.
type printOnce struct{ sync.Once }

var printers = map[string]*printOnce{}
var printersMu sync.Mutex

func oncePer(name string) *printOnce {
	printersMu.Lock()
	defer printersMu.Unlock()
	p, ok := printers[name]
	if !ok {
		p = &printOnce{}
		printers[name] = p
	}
	return p
}

// BenchmarkSuiteRun is the headline end-to-end benchmark: one full suite
// pass (all 14 catalog traces simulated under both SRM and CESRM,
// serially), for measuring while you work; run with -benchmem to see
// ns/op and allocs/op. The repository's benchmark — the one that
// compares a change with its parent — is `go run ./benchmark`.
// Unlike the figure benchmarks below, it does not reuse the shared
// suite — every iteration simulates from scratch.
func BenchmarkSuiteRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiment.Suite{Scale: benchScale(), Seed: 1}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1TraceCatalog regenerates Table 1: the 14-trace catalog
// with source, receivers, depth, period, packet and loss counts.
func BenchmarkTable1TraceCatalog(b *testing.B) {
	results := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range results {
			_ = r.Pair.Trace.ComputeStats()
		}
	}
	b.StopTimer()
	oncePer("table1").Do(func() {
		fmt.Printf("\n[Table 1] scale=%v\n", benchScale())
		experiment.RenderTable1(os.Stdout, results)
	})
}

// BenchmarkSec42InferenceAccuracy regenerates the §4.2 claim: the
// fraction of selected link combinations whose normalized probability
// exceeds 95% (paper: >90% of selections for 13 of 14 traces).
func BenchmarkSec42InferenceAccuracy(b *testing.B) {
	results := suite(b)
	b.ResetTimer()
	var confs []float64
	for i := 0; i < b.N; i++ {
		confs = confs[:0]
		for _, r := range results {
			tr := r.Pair.Trace
			res, err := lossinfer.Infer(tr, lossinfer.EstimateYajnik(tr))
			if err != nil {
				b.Fatal(err)
			}
			confs = append(confs, res.Confidence(0.95))
		}
	}
	b.StopTimer()
	oncePer("sec42").Do(func() {
		fmt.Printf("\n[§4.2] selection confidence >95%% per trace:")
		for i, c := range confs {
			fmt.Printf(" %d:%.0f%%", i+1, 100*c)
		}
		fmt.Println()
	})
}

// BenchmarkFigure1RecoveryTimes regenerates Figure 1: per-receiver
// average normalized recovery times, SRM vs CESRM (paper: CESRM 40-70%
// lower, ~50% on average).
func BenchmarkFigure1RecoveryTimes(b *testing.B) {
	results := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range results {
			_ = r.Pair.Figure1()
		}
	}
	b.StopTimer()
	oncePer("fig1").Do(func() {
		fmt.Printf("\n[Figure 1] mean reduction per trace:")
		for _, r := range results {
			fmt.Printf(" %d:%.0f%%", r.Entry.Index, r.Pair.LatencyReductionPct())
		}
		fmt.Println()
	})
}

// BenchmarkFigure2ExpeditedDelta regenerates Figure 2: the per-receiver
// difference between expedited and non-expedited normalized recovery
// times (paper: 1 to 2.5 RTT).
func BenchmarkFigure2ExpeditedDelta(b *testing.B) {
	results := suite(b)
	b.ResetTimer()
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		lo, hi = 99, 0
		for _, r := range results {
			for _, row := range r.Pair.Figure2() {
				if row.ExpeditedCount == 0 || row.NormalCount == 0 {
					continue
				}
				if row.Delta < lo {
					lo = row.Delta
				}
				if row.Delta > hi {
					hi = row.Delta
				}
			}
		}
	}
	b.StopTimer()
	oncePer("fig2").Do(func() {
		fmt.Printf("\n[Figure 2] expedited vs non-expedited delta range: %.2f to %.2f RTT (paper: 1 to 2.5)\n", lo, hi)
	})
}

// BenchmarkFigure3RequestCounts regenerates Figure 3: per-host request
// packet counts split SRM-multicast / CESRM-multicast / CESRM-unicast.
func BenchmarkFigure3RequestCounts(b *testing.B) {
	results := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range results {
			_ = r.Pair.Figure3()
		}
	}
	b.StopTimer()
	oncePer("fig3").Do(func() {
		fmt.Printf("\n[Figure 3] total requests (SRM vs CESRM mcast+ucast):")
		for _, r := range results {
			var s, cm, cu int
			for _, row := range r.Pair.Figure3() {
				s += row.SRM
				cm += row.CESRMMulticast
				cu += row.CESRMExpedited
			}
			fmt.Printf(" %d:%d/%d+%d", r.Entry.Index, s, cm, cu)
		}
		fmt.Println()
	})
}

// BenchmarkFigure4ReplyCounts regenerates Figure 4: per-host reply
// packet counts (paper: CESRM sends substantially fewer retransmissions).
func BenchmarkFigure4ReplyCounts(b *testing.B) {
	results := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range results {
			_ = r.Pair.Figure4()
		}
	}
	b.StopTimer()
	oncePer("fig4").Do(func() {
		fmt.Printf("\n[Figure 4] total replies (SRM vs CESRM mcast+exp):")
		for _, r := range results {
			var s, cm, ce int
			for _, row := range r.Pair.Figure4() {
				s += row.SRM
				cm += row.CESRMMulticast
				ce += row.CESRMExpedited
			}
			fmt.Printf(" %d:%d/%d+%d", r.Entry.Index, s, cm, ce)
		}
		fmt.Println()
	})
}

// BenchmarkFigure5ExpeditedSuccess regenerates Figure 5 (left): the
// percentage of successful expedited recoveries per trace (paper: >70%
// for all traces, >80% for all but two).
func BenchmarkFigure5ExpeditedSuccess(b *testing.B) {
	results := suite(b)
	b.ResetTimer()
	var succ []float64
	for i := 0; i < b.N; i++ {
		succ = succ[:0]
		for _, r := range results {
			s, _ := r.Pair.ExpeditedSuccess()
			succ = append(succ, s)
		}
	}
	b.StopTimer()
	oncePer("fig5l").Do(func() {
		fmt.Printf("\n[Figure 5 left] expedited success per trace:")
		for i, s := range succ {
			fmt.Printf(" %d:%.0f%%", i+1, s)
		}
		fmt.Println()
	})
}

// BenchmarkFigure5Overhead regenerates Figure 5 (right): CESRM's
// transmission overhead as a percentage of SRM's, split into
// retransmissions and multicast/unicast control (paper: retransmissions
// <80% for all traces, control <52% for all but one).
func BenchmarkFigure5Overhead(b *testing.B) {
	results := suite(b)
	b.ResetTimer()
	var rows []experiment.OverheadRow
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, r := range results {
			rows = append(rows, r.Pair.Overhead())
		}
	}
	b.StopTimer()
	oncePer("fig5r").Do(func() {
		fmt.Printf("\n[Figure 5 right] retrans%%/control%% of SRM per trace:")
		for i, o := range rows {
			fmt.Printf(" %d:%.0f/%.0f", i+1, o.RetransPct, o.ControlTotalPct())
		}
		fmt.Println()
	})
}

// BenchmarkEq1FirstRoundLatency regenerates the §3.4 analytic check: the
// average normalized latency of successful first-round non-expedited
// recoveries (paper: between 1.5 and 3.25 RTT for the default
// parameters, upper-bounded by Eq. (1) at 3.25 RTT).
func BenchmarkEq1FirstRoundLatency(b *testing.B) {
	results := suite(b)
	b.ResetTimer()
	var vals []float64
	for i := 0; i < b.N; i++ {
		vals = vals[:0]
		for _, r := range results {
			fr := r.Pair.SRM.Collector.FirstRoundNormalized(r.Pair.SRM.RTT)
			vals = append(vals, fr.MeanRTT)
		}
	}
	b.StopTimer()
	oncePer("eq1").Do(func() {
		fmt.Printf("\n[Eq.1] SRM first-round mean per trace (bound 3.25 RTT):")
		for i, v := range vals {
			fmt.Printf(" %d:%.2f", i+1, v)
		}
		fmt.Println()
	})
}

// ablationTrace returns a mid-sized catalog trace for the ablation
// benchmarks.
func ablationTrace(b *testing.B) *trace.Trace {
	b.Helper()
	tr, err := trace.Catalog[12].Load(benchScale()) // WRN951216
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkAblationLinkDelay reenacts the paper's link-delay sweep
// (10/20/30 ms): results should be very similar in normalized terms.
func BenchmarkAblationLinkDelay(b *testing.B) {
	tr := ablationTrace(b)
	delays := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	b.ResetTimer()
	var means []float64
	for i := 0; i < b.N; i++ {
		means = means[:0]
		for _, d := range delays {
			cfg := netsim.DefaultConfig()
			cfg.LinkDelay = d
			res, err := experiment.Run(experiment.RunConfig{
				Trace: tr, Protocol: experiment.CESRM, Net: cfg, Seed: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			means = append(means, res.Collector.OverallNormalized(res.RTT).MeanRTT)
		}
	}
	b.StopTimer()
	oncePer("abl-delay").Do(func() {
		fmt.Printf("\n[Ablation: link delay] CESRM mean RTTs at 10/20/30ms: %.2f %.2f %.2f\n",
			means[0], means[1], means[2])
	})
}

// BenchmarkAblationLossyRecovery reenacts the companion experiment with
// recovery traffic subject to the estimated link loss rates (paper:
// latencies slightly larger, same relative gains).
func BenchmarkAblationLossyRecovery(b *testing.B) {
	tr := ablationTrace(b)
	b.ResetTimer()
	var lossless, lossy float64
	for i := 0; i < b.N; i++ {
		for _, mode := range []bool{false, true} {
			res, err := experiment.Run(experiment.RunConfig{
				Trace: tr, Protocol: experiment.CESRM, LossyRecovery: mode, Seed: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			m := res.Collector.OverallNormalized(res.RTT).MeanRTT
			if mode {
				lossy = m
			} else {
				lossless = m
			}
		}
	}
	b.StopTimer()
	oncePer("abl-lossy").Do(func() {
		fmt.Printf("\n[Ablation: lossy recovery] CESRM mean RTT lossless=%.2f lossy=%.2f\n", lossless, lossy)
	})
}

// BenchmarkAblationPolicy compares the most-recent-loss and
// most-frequent-loss expedition policies (paper/[10]: most-recent wins).
func BenchmarkAblationPolicy(b *testing.B) {
	tr := ablationTrace(b)
	b.ResetTimer()
	var recent, frequent float64
	for i := 0; i < b.N; i++ {
		for _, pol := range []core.Policy{core.MostRecentLoss{}, core.MostFrequentLoss{}} {
			res, err := experiment.Run(experiment.RunConfig{
				Trace: tr, Protocol: experiment.CESRM,
				CESRM: core.Config{Policy: pol}, Seed: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			m := res.Collector.OverallNormalized(res.RTT).MeanRTT
			if pol.Name() == "most-recent-loss" {
				recent = m
			} else {
				frequent = m
			}
		}
	}
	b.StopTimer()
	oncePer("abl-policy").Do(func() {
		fmt.Printf("\n[Ablation: policy] mean RTT most-recent=%.2f most-frequent=%.2f\n", recent, frequent)
	})
}

// BenchmarkScalingGroupSize goes beyond the paper's 7-15 receiver
// traces: it sweeps the group size at a fixed per-receiver loss rate and
// reports how each protocol's latency and recovery cost (link crossings
// per loss) scale. CESRM's advantage persists as the group grows --
// expedited recovery does not depend on group-wide suppression.
func BenchmarkScalingGroupSize(b *testing.B) {
	sizes := []int{8, 16, 32, 56}
	type point struct {
		srmLat, cesrmLat   float64
		srmCost, cesrmCost float64
	}
	var points []point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = points[:0]
		for _, n := range sizes {
			tr, err := trace.Generate(trace.GenSpec{
				Name:         fmt.Sprintf("scale-%d", n),
				Topology:     topology.GenSpec{Receivers: n, Depth: 5},
				NumPackets:   2000,
				Period:       80 * time.Millisecond,
				TargetLosses: 60 * n, // constant 3% per-receiver loss
				Seed:         int64(1000 + n),
			})
			if err != nil {
				b.Fatal(err)
			}
			pair, err := experiment.RunPair(tr, experiment.RunConfig{Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			losses := float64(tr.TotalLosses())
			points = append(points, point{
				srmLat:    pair.SRM.Collector.OverallNormalized(pair.SRM.RTT).MeanRTT,
				cesrmLat:  pair.CESRM.Collector.OverallNormalized(pair.CESRM.RTT).MeanRTT,
				srmCost:   float64(pair.SRM.Crossings.RecoveryTotal()) / losses,
				cesrmCost: float64(pair.CESRM.Crossings.RecoveryTotal()) / losses,
			})
		}
	}
	b.StopTimer()
	oncePer("scaling").Do(func() {
		fmt.Printf("\n[Scaling] group size sweep (latency RTT / recovery crossings per loss):\n")
		for i, n := range sizes {
			p := points[i]
			fmt.Printf("  %2d receivers: SRM %.2f/%.1f  CESRM %.2f/%.1f\n",
				n, p.srmLat, p.srmCost, p.cesrmLat, p.cesrmCost)
		}
	})
}

// BenchmarkAblationAdaptiveTimers compares SRM with fixed parameters
// (the paper's baseline) against SRM with adaptive timer adjustment
// (Floyd et al. ToN 1997 §VI): adaptation trades duplicate suppression
// against recovery latency automatically.
func BenchmarkAblationAdaptiveTimers(b *testing.B) {
	tr := ablationTrace(b)
	b.ResetTimer()
	var fixedLat, adaptLat float64
	var fixedDups, adaptDups int
	for i := 0; i < b.N; i++ {
		for _, adaptive := range []bool{false, true} {
			cfg := experiment.RunConfig{Trace: tr, Protocol: experiment.SRM, Seed: 3}
			if adaptive {
				cfg.Adaptive = srm.DefaultAdaptiveConfig()
			}
			res, err := experiment.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			lat := res.Collector.OverallNormalized(res.RTT).MeanRTT
			reqs := res.Collector.TotalCounts().Requests
			if adaptive {
				adaptLat, adaptDups = lat, reqs
			} else {
				fixedLat, fixedDups = lat, reqs
			}
		}
	}
	b.StopTimer()
	oncePer("abl-adaptive").Do(func() {
		fmt.Printf("\n[Ablation: adaptive timers] SRM fixed: %.2f RTT / %d requests; adaptive: %.2f RTT / %d requests\n",
			fixedLat, fixedDups, adaptLat, adaptDups)
	})
}

// BenchmarkAblationReorderDelay exercises the REORDER-DELAY mechanism
// (§3.2) under delivery jitter: a zero delay (the paper's setting, valid
// because its traces never reorder) chases reordered packets with
// spurious expedited requests; a delay above the jitter magnitude absorbs
// them.
func BenchmarkAblationReorderDelay(b *testing.B) {
	tr := ablationTrace(b)
	b.ResetTimer()
	var eager, patient int
	for i := 0; i < b.N; i++ {
		for _, delay := range []time.Duration{0, 160 * time.Millisecond} {
			res, err := experiment.Run(experiment.RunConfig{
				Trace: tr, Protocol: experiment.CESRM,
				Jitter: 150 * time.Millisecond,
				CESRM:  core.Config{ReorderDelay: delay},
				Seed:   3,
			})
			if err != nil {
				b.Fatal(err)
			}
			if delay == 0 {
				eager = res.SpuriousExpedited
			} else {
				patient = res.SpuriousExpedited
			}
		}
	}
	b.StopTimer()
	oncePer("abl-reorder").Do(func() {
		fmt.Printf("\n[Ablation: reorder delay] spurious expedited requests under 150ms jitter: delay=0: %d, delay=160ms: %d\n",
			eager, patient)
	})
}

// BenchmarkAblationRouterAssist measures the §3.3 router-assisted
// variant against basic CESRM: retransmission exposure drops because
// expedited replies are subcast into the loss subtree only.
func BenchmarkAblationRouterAssist(b *testing.B) {
	// Router assistance pays off when turning points sit below the root;
	// trace 11 (WRN951211, depth 4, deep loss links) exhibits that.
	tr, err := trace.Catalog[10].Load(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var basic, assisted uint64
	for i := 0; i < b.N; i++ {
		for _, assist := range []bool{false, true} {
			res, err := experiment.Run(experiment.RunConfig{
				Trace: tr, Protocol: experiment.CESRM,
				CESRM: core.Config{RouterAssist: assist}, Seed: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			total := res.Crossings.PayloadMulticast + res.Crossings.PayloadSubcast + res.Crossings.PayloadUnicast
			if assist {
				assisted = total
			} else {
				basic = total
			}
		}
	}
	b.StopTimer()
	oncePer("abl-router").Do(func() {
		fmt.Printf("\n[Ablation: router assist] retrans crossings basic=%d assisted=%d (%.0f%%)\n",
			basic, assisted, 100*float64(assisted)/float64(basic))
	})
}

// BenchmarkComparisonThreeProtocols lines the paper's protagonists up on
// one trace: SRM (suppression, full multicast), CESRM (caching-expedited
// with SRM fallback), router-assisted CESRM (§3.3) and LMS (router
// replier state). Latency in RTT units and recovery link-crossings per
// loss.
func BenchmarkComparisonThreeProtocols(b *testing.B) {
	tr, err := trace.Catalog[10].Load(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	type row struct {
		name string
		lat  float64
		cost float64
	}
	var rows []row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		losses := float64(tr.TotalLosses())
		for _, v := range []struct {
			name string
			cfg  experiment.RunConfig
		}{
			{"SRM", experiment.RunConfig{Trace: tr, Protocol: experiment.SRM, Seed: 3}},
			{"CESRM", experiment.RunConfig{Trace: tr, Protocol: experiment.CESRM, Seed: 3}},
			{"CESRM-RA", experiment.RunConfig{Trace: tr, Protocol: experiment.CESRM, CESRM: core.Config{RouterAssist: true}, Seed: 3}},
			{"LMS", experiment.RunConfig{Trace: tr, Protocol: experiment.LMS, Seed: 3}},
		} {
			res, err := experiment.Run(v.cfg)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{
				name: v.name,
				lat:  res.Collector.OverallNormalized(res.RTT).MeanRTT,
				cost: float64(res.Crossings.RecoveryTotal()) / losses,
			})
		}
	}
	b.StopTimer()
	oncePer("compare3").Do(func() {
		fmt.Printf("\n[Comparison] %s: latency RTT / recovery crossings per loss:\n", tr.Name)
		for _, r := range rows {
			fmt.Printf("  %-9s %.2f / %.1f\n", r.name, r.lat, r.cost)
		}
	})
}

// BenchmarkRobustnessReplierCrash quantifies §3.3: crash the receiver
// LMS designates as replier mid-run. LMS recovery in that region stalls
// on stale router state until the fabric refresh; CESRM's expedited
// scheme degrades gracefully to SRM and re-caches a live pair.
func BenchmarkRobustnessReplierCrash(b *testing.B) {
	tr, err := trace.Catalog[12].Load(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	victim := tr.Tree.Receivers()[0]
	crash := &chaos.Spec{Name: "replier-crash", Faults: []chaos.Fault{{Kind: chaos.Crash, At: 20 * time.Second, Host: victim}}}
	var lmsP99, cesrmP99, lmsMean, cesrmMean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lmsRes, err := experiment.Run(experiment.RunConfig{
			Trace: tr, Protocol: experiment.LMS, Chaos: crash,
			LMSRefresh: 8 * time.Second, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		cesrmRes, err := experiment.Run(experiment.RunConfig{
			Trace: tr, Protocol: experiment.CESRM, Chaos: crash, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		lmsP99 = lmsRes.Collector.NormalizedPercentile(lmsRes.RTT, 0.99)
		cesrmP99 = cesrmRes.Collector.NormalizedPercentile(cesrmRes.RTT, 0.99)
		lmsMean = lmsRes.Collector.OverallNormalized(lmsRes.RTT).MeanRTT
		cesrmMean = cesrmRes.Collector.OverallNormalized(cesrmRes.RTT).MeanRTT
	}
	b.StopTimer()
	oncePer("robust").Do(func() {
		fmt.Printf("\n[Robustness: replier crash] mean/p99 normalized latency: LMS %.2f/%.1f RTT, CESRM %.2f/%.1f RTT\n",
			lmsMean, lmsP99, cesrmMean, cesrmP99)
	})
}
