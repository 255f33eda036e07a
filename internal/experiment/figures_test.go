package experiment

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/core"
	"cesrm/internal/netsim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

func smallPair(t *testing.T) *Pair {
	t.Helper()
	tr := smallTrace(t, 10)
	p, err := RunPair(tr, RunConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFigure1ShowsCESRMFaster(t *testing.T) {
	p := smallPair(t)
	rows := p.Figure1()
	if len(rows) != p.Trace.NumReceivers() {
		t.Fatalf("rows = %d, want %d", len(rows), p.Trace.NumReceivers())
	}
	faster := 0
	for _, r := range rows {
		if r.Index < 1 || r.Index > len(rows) {
			t.Fatalf("bad index %d", r.Index)
		}
		if r.CESRMMean < r.SRMMean {
			faster++
		}
	}
	// CESRM must win for the clear majority of receivers (paper: all).
	if faster*2 <= len(rows) {
		t.Fatalf("CESRM faster for only %d of %d receivers", faster, len(rows))
	}
	if p.LatencyReductionPct() < 20 {
		t.Fatalf("latency reduction %.1f%%, want >= 20%%", p.LatencyReductionPct())
	}
}

func TestFigure2DeltasWithinPaperBand(t *testing.T) {
	p := smallPair(t)
	for _, row := range p.Figure2() {
		if row.ExpeditedCount == 0 || row.NormalCount == 0 {
			continue
		}
		// Paper band is 1 to 2.5 RTT; allow slack for small receivers.
		if row.Delta < 0.2 || row.Delta > 3.5 {
			t.Errorf("receiver %d delta %.2f RTT outside sane band", row.Index, row.Delta)
		}
		if row.ExpeditedMean >= row.NormalMean {
			t.Errorf("receiver %d: expedited (%.2f) not faster than non-expedited (%.2f)",
				row.Index, row.ExpeditedMean, row.NormalMean)
		}
	}
}

func TestFigure3And4Accounting(t *testing.T) {
	p := smallPair(t)
	f3, f4 := p.Figure3(), p.Figure4()
	if len(f3) != p.Trace.NumReceivers()+1 || len(f4) != len(f3) {
		t.Fatalf("row counts: %d/%d", len(f3), len(f4))
	}
	if f3[0].Index != 0 {
		t.Fatal("host 0 (source) missing from Figure 3")
	}
	// The source never requests (it has every packet).
	if f3[0].SRM != 0 || f3[0].CESRMMulticast != 0 || f3[0].CESRMExpedited != 0 {
		t.Fatalf("source sent requests: %+v", f3[0])
	}
	// Totals must match the collectors.
	var cm, cu int
	for _, row := range f3 {
		cm += row.CESRMMulticast
		cu += row.CESRMExpedited
	}
	tot := p.CESRM.Collector.TotalCounts()
	if cm != tot.Requests || cu != tot.ExpRequests {
		t.Fatalf("figure 3 totals %d/%d, collector %d/%d", cm, cu, tot.Requests, tot.ExpRequests)
	}
	// CESRM total replies below SRM's (paper's qualitative claim).
	var srmReplies, cesrmReplies int
	for _, row := range f4 {
		srmReplies += row.SRM
		cesrmReplies += row.CESRMMulticast + row.CESRMExpedited
	}
	if cesrmReplies >= srmReplies {
		t.Fatalf("CESRM replies %d not below SRM %d", cesrmReplies, srmReplies)
	}
}

func TestFigure5Metrics(t *testing.T) {
	p := smallPair(t)
	succ, ok := p.ExpeditedSuccess()
	if !ok {
		t.Fatal("no expedited success ratio")
	}
	if succ < 40 || succ > 100 {
		t.Fatalf("expedited success %.1f%% implausible", succ)
	}
	o := p.Overhead()
	if o.RetransPct <= 0 || o.RetransPct >= 100 {
		t.Fatalf("retrans overhead %.1f%% out of (0, 100)", o.RetransPct)
	}
	if o.ControlTotalPct() <= 0 {
		t.Fatal("control overhead not positive")
	}
	if o.ControlUnicastPct <= 0 {
		t.Fatal("no unicast control overhead despite expedited requests")
	}
}

func TestLossyRecoveryStillCompletes(t *testing.T) {
	tr := smallTrace(t, 11)
	res, err := Run(RunConfig{Trace: tr, Protocol: CESRM, LossyRecovery: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// With lossy recovery latencies grow but reliability must hold (the
	// runner verifies MissingIn == 0 internally).
	lossless, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lm := lossless.Collector.OverallNormalized(lossless.RTT).MeanRTT
	ly := res.Collector.OverallNormalized(res.RTT).MeanRTT
	if ly <= lm {
		t.Errorf("lossy recovery mean %.2f not above lossless %.2f", ly, lm)
	}
}

func TestQueuingModeCompletes(t *testing.T) {
	tr := smallTrace(t, 12)
	cfg := netsim.DefaultConfig()
	cfg.Queuing = true
	res, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Net: cfg, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Collector.Recoveries()) == 0 {
		t.Fatal("no recoveries under queuing mode")
	}
}

func TestAdaptiveTimersRunCompletes(t *testing.T) {
	tr := smallTrace(t, 13)
	res, err := Run(RunConfig{
		Trace:    tr,
		Protocol: SRM,
		Adaptive: srm.DefaultAdaptiveConfig(),
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Collector.Recoveries()) == 0 {
		t.Fatal("no recoveries with adaptive timers")
	}
}

func TestLinkDelaySweepSimilarNormalizedResults(t *testing.T) {
	// The paper: results with 10/20/30 ms links "were very similar".
	tr := smallTrace(t, 14)
	var means []float64
	for _, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		cfg := netsim.DefaultConfig()
		cfg.LinkDelay = d
		res, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Net: cfg, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		means = append(means, res.Collector.OverallNormalized(res.RTT).MeanRTT)
	}
	for i := 1; i < len(means); i++ {
		ratio := means[i] / means[0]
		if ratio < 0.6 || ratio > 1.67 {
			t.Fatalf("normalized results diverge across delays: %v", means)
		}
	}
}

func TestRouterAssistReducesExposure(t *testing.T) {
	// Note: router assistance only pays off when expeditious repliers
	// are receivers (turning points below the root); when the source is
	// the cached replier, the turning point is the root and the subcast
	// degenerates to a full multicast. Catalog trace 11 has deep loss
	// links and receiver repliers.
	entry := trace.Catalog[10]
	tr, err := entry.Load(0.02)
	if err != nil {
		t.Fatal(err)
	}
	basic, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	assisted, err := Run(RunConfig{
		Trace: tr, Protocol: CESRM,
		CESRM: core.Config{RouterAssist: true}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	bTot := basic.Crossings.PayloadMulticast + basic.Crossings.PayloadSubcast + basic.Crossings.PayloadUnicast
	aTot := assisted.Crossings.PayloadMulticast + assisted.Crossings.PayloadSubcast + assisted.Crossings.PayloadUnicast
	if assisted.Crossings.PayloadSubcast == 0 {
		t.Fatal("router-assisted run never subcast")
	}
	if aTot >= bTot {
		t.Fatalf("router assistance did not reduce retransmission exposure: %d vs %d", aTot, bTot)
	}
}

func TestReorderDelayUnderJitter(t *testing.T) {
	// With delivery jitter, packets arrive out of order and a zero
	// REORDER-DELAY fires expedited requests for packets that are merely
	// late. A REORDER-DELAY above the jitter magnitude absorbs
	// them.
	tr := smallTrace(t, 16)
	eager, err := Run(RunConfig{
		Trace: tr, Protocol: CESRM,
		Jitter: 150 * time.Millisecond,
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	patient, err := Run(RunConfig{
		Trace: tr, Protocol: CESRM,
		Jitter: 150 * time.Millisecond,
		CESRM:  core.Config{ReorderDelay: 160 * time.Millisecond},
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eager.SpuriousExpedited <= patient.SpuriousExpedited {
		t.Fatalf("zero reorder delay produced %d spurious expedited requests, with delay %d — expected more",
			eager.SpuriousExpedited, patient.SpuriousExpedited)
	}
	if patient.SpuriousExpedited > eager.SpuriousExpedited/2 {
		t.Fatalf("80ms reorder delay left %d of %d spurious requests", patient.SpuriousExpedited, eager.SpuriousExpedited)
	}
}

func TestSuiteSubsetAndRendering(t *testing.T) {
	s := Suite{Scale: 0.005, Seed: 2, Traces: []int{4, 13}}
	results, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	if results[0].Entry.Index != 4 || results[1].Entry.Index != 13 {
		t.Fatal("wrong traces selected")
	}
	var buf bytes.Buffer
	RenderAll(&buf, results, s.Seed)
	out := buf.String()
	for _, want := range []string{"Table 1", "§4.2", "Figure 1", "Figure 2",
		"Figure 3", "Figure 4", "Figure 5", "Summary", "WRN950919", "WRN951216"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestSuiteRejectsBadIndices(t *testing.T) {
	if _, err := (Suite{Scale: 0.01, Traces: []int{0}}).Run(); err == nil {
		t.Fatal("accepted index 0")
	}
	if _, err := (Suite{Scale: 0.01, Traces: []int{15}}).Run(); err == nil {
		t.Fatal("accepted index 15")
	}
}

func TestProtocolString(t *testing.T) {
	if SRM.String() != "SRM" || CESRM.String() != "CESRM" {
		t.Fatal("protocol names wrong")
	}
	if Protocol(9).String() == "" {
		t.Fatal("unknown protocol should still format")
	}
}

func TestBarChartsRender(t *testing.T) {
	s := Suite{Scale: 0.005, Seed: 2, Traces: []int{13}}
	results, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFigure1Bars(&buf, results)
	RenderFigure5Bars(&buf, results)
	out := buf.String()
	if !strings.Contains(out, "█") || !strings.Contains(out, "▒") {
		t.Fatal("bar glyphs missing")
	}
	if !strings.Contains(out, "recv 1") || !strings.Contains(out, "WRN951216") {
		t.Fatal("labels missing")
	}
}

func TestBarChartEdgeCases(t *testing.T) {
	c := newBarChart("empty", "a")
	var buf bytes.Buffer
	c.render(&buf)
	if !strings.Contains(buf.String(), "(no data)") {
		t.Fatal("empty chart not handled")
	}
	c2 := newBarChart("zeros", "a")
	c2.add("x", 0)
	buf.Reset()
	c2.render(&buf)
	if !strings.Contains(buf.String(), "(no data)") {
		t.Fatal("all-zero chart not handled")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row width did not panic")
		}
	}()
	c3 := newBarChart("bad", "a", "b")
	c3.add("x", 1)
}

// TestPropertyRandomTracesRunClean drives randomized small traces
// through both protocols. Each run already enforces, internally: the
// online invariant validator, full reliability (no receiver missing any
// packet), and the detected-vs-trace loss cross-check. The property
// here adds cross-protocol consistency: both protocols recover the same
// trace, and CESRM's retransmission volume stays in the neighborhood of
// SRM's or below. (Strictly fewer replies is the paper's *empirical*
// observation on its traces, not an invariant: on tiny traces where
// C1*d undercuts the expedited round trip, the expedited reply can add
// to, rather than replace, the fallback round.)
func TestPropertyRandomTracesRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized integration sweep")
	}
	f := func(seed int64, rc, dc, lr uint8) bool {
		receivers := int(rc%10) + 4
		depth := int(dc%3) + 3
		packets := 1200
		losses := packets * receivers * (int(lr%8) + 2) / 100 // 2-9% per receiver
		tr, err := trace.Generate(trace.GenSpec{
			Name:         "prop",
			Topology:     topology.GenSpec{Receivers: receivers, Depth: depth},
			NumPackets:   packets,
			Period:       80 * time.Millisecond,
			TargetLosses: losses,
			Seed:         seed,
		})
		if err != nil {
			t.Logf("generate(seed=%d): %v", seed, err)
			return false
		}
		pair, err := RunPair(tr, RunConfig{Seed: seed + 1})
		if err != nil {
			t.Logf("run(seed=%d): %v", seed, err)
			return false
		}
		srmReplies := pair.SRM.Collector.TotalCounts().Replies
		cc := pair.CESRM.Collector.TotalCounts()
		if float64(cc.Replies+cc.ExpReplies) > 1.5*float64(srmReplies) {
			t.Logf("seed=%d: CESRM replies %d+%d far exceed SRM %d",
				seed, cc.Replies, cc.ExpReplies, srmReplies)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestLinkOutageRecovery injects a full outage on one link for a window
// of the transmission: all traffic crossing it (data, recovery, even
// sessions) is severed. Receivers below the cut accumulate losses and
// must recover everything once the link heals.
func TestLinkOutageRecovery(t *testing.T) {
	tr := smallTrace(t, 17)
	// Cut the first receiver's link for 20 seconds mid-transmission: the
	// source sends one packet per 80 ms after a 3 s warmup, so the window
	// t=30s..50s spans about 250 packets.
	victim := tr.Tree.Receivers()[0]
	res, err := Run(RunConfig{
		Trace:    tr,
		Protocol: CESRM,
		Seed:     5,
		Chaos: &chaos.Spec{Name: "outage", Faults: []chaos.Fault{
			{Kind: chaos.LinkDown, At: 30 * time.Second, Until: 50 * time.Second, Link: topology.LinkID(victim)},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every packet of the outage window was eventually recovered (the
	// runner asserts MissingIn == 0 internally); the victim's loss count
	// must cover the window.
	if got := res.Collector.Losses(victim); got < 200 {
		t.Fatalf("victim detected only %d losses for a 250-packet outage", got)
	}
}

func TestLMSRunCompletes(t *testing.T) {
	tr := smallTrace(t, 18)
	res, err := Run(RunConfig{Trace: tr, Protocol: LMS, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Collector.Recoveries()) == 0 {
		t.Fatal("no LMS recoveries")
	}
	// LMS never multicasts retransmissions: all repair traffic is
	// unicast legs plus subcasts.
	if res.Crossings.PayloadMulticast != 0 {
		t.Fatalf("LMS multicast retransmissions: %d crossings", res.Crossings.PayloadMulticast)
	}
	if res.Crossings.ControlMulticast != 0 {
		t.Fatalf("LMS multicast control: %d crossings", res.Crossings.ControlMulticast)
	}
}

func TestLMSFasterThanSRMAndLocalized(t *testing.T) {
	tr := smallTrace(t, 19)
	srmRes, err := Run(RunConfig{Trace: tr, Protocol: SRM, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	lmsRes, err := Run(RunConfig{Trace: tr, Protocol: LMS, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srmLat := srmRes.Collector.OverallNormalized(srmRes.RTT).MeanRTT
	lmsLat := lmsRes.Collector.OverallNormalized(lmsRes.RTT).MeanRTT
	// Router assistance removes suppression delays entirely: LMS should
	// beat SRM on latency comfortably.
	if lmsLat >= srmLat {
		t.Fatalf("LMS latency %.2f not below SRM %.2f", lmsLat, srmLat)
	}
	// And its retransmission exposure is a fraction of SRM's multicast.
	srmRetrans := srmRes.Crossings.PayloadMulticast
	lmsRetrans := lmsRes.Crossings.PayloadUnicast + lmsRes.Crossings.PayloadSubcast
	if lmsRetrans >= srmRetrans {
		t.Fatalf("LMS retrans crossings %d not below SRM %d", lmsRetrans, srmRetrans)
	}
}

func TestLMSRejectsAdaptive(t *testing.T) {
	tr := smallTrace(t, 18)
	_, err := Run(RunConfig{Trace: tr, Protocol: LMS, Adaptive: srm.DefaultAdaptiveConfig(), Seed: 5})
	if err == nil {
		t.Fatal("LMS accepted adaptive SRM timers")
	}
}

func TestCrashedReceiverExemptFromChecks(t *testing.T) {
	tr := smallTrace(t, 20)
	victim := tr.Tree.Receivers()[1]
	for _, proto := range []Protocol{SRM, CESRM, LMS} {
		res, err := Run(RunConfig{
			Trace:    tr,
			Protocol: proto,
			Chaos:    crashSpec(victim, 10*time.Second),
			Seed:     5,
		})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if len(res.Collector.Recoveries()) == 0 {
			t.Fatalf("%v: no recoveries at surviving receivers", proto)
		}
	}
	// Crashing the source is rejected.
	if _, err := Run(RunConfig{
		Trace:    tr,
		Protocol: SRM,
		Chaos:    crashSpec(tr.Tree.Root(), time.Second),
		Seed:     5,
	}); err == nil {
		t.Fatal("source crash accepted")
	}
}

// crashSpec fail-stops one host at the given instant.
func crashSpec(host topology.NodeID, at time.Duration) *chaos.Spec {
	return &chaos.Spec{Name: "crash", Faults: []chaos.Fault{{Kind: chaos.Crash, At: at, Host: host}}}
}

// TestCrashRobustnessCESRMvsLMS quantifies §3.3's robustness argument:
// crash the receiver LMS designates as replier. LMS NAKs stall against
// the stale router state until the fabric refresh; CESRM falls back to
// SRM immediately and its caches simply evolve. The stall shows up in
// the upper latency quantiles.
func TestCrashRobustnessCESRMvsLMS(t *testing.T) {
	tr := smallTrace(t, 21)
	// LMS designates the lowest-ID receiver as replier nearly everywhere.
	victim := tr.Tree.Receivers()[0]
	crash := crashSpec(victim, 20*time.Second)

	lmsRes, err := Run(RunConfig{
		Trace: tr, Protocol: LMS, Chaos: crash, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cesrmRes, err := Run(RunConfig{
		Trace: tr, Protocol: CESRM, Chaos: crash, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	lmsP99 := lmsRes.Collector.NormalizedPercentile(lmsRes.RTT, 0.99)
	cesrmP99 := cesrmRes.Collector.NormalizedPercentile(cesrmRes.RTT, 0.99)
	if lmsP99 <= cesrmP99 {
		t.Fatalf("LMS p99 %.1f RTT not above CESRM's %.1f under replier crash", lmsP99, cesrmP99)
	}
	// The LMS stall is roughly the refresh window: tens of RTTs.
	if lmsP99 < 10 {
		t.Fatalf("LMS p99 %.1f RTT — expected a stall of tens of RTTs", lmsP99)
	}
}

func TestRunComparisonAllSchemes(t *testing.T) {
	tr := smallTrace(t, 22)
	rows, err := RunComparison(tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 schemes", len(rows))
	}
	byName := map[string]ComparisonRow{}
	for _, r := range rows {
		byName[r.Scheme] = r
		if r.MeanRTT <= 0 || r.CostPerLoss <= 0 {
			t.Fatalf("%s: degenerate metrics %+v", r.Scheme, r)
		}
	}
	if byName["CESRM"].MeanRTT >= byName["SRM"].MeanRTT {
		t.Fatal("CESRM not faster than SRM in comparison")
	}
	if byName["LMS"].CostPerLoss >= byName["SRM"].CostPerLoss {
		t.Fatal("LMS not cheaper than SRM in comparison")
	}
	if byName["CESRM"].ExpeditedPct <= 0 || byName["SRM"].ExpeditedPct != 0 {
		t.Fatal("expedited percentages wrong")
	}
}

func TestSuiteParallelMatchesSerial(t *testing.T) {
	serial := Suite{Scale: 0.005, Seed: 2, Traces: []int{4, 13, 14}}
	parallel := Suite{Scale: 0.005, Seed: 2, Traces: []int{4, 13, 14}, Parallel: 3}
	a, err := serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("result counts differ")
	}
	for i := range a {
		if a[i].Entry.Index != b[i].Entry.Index {
			t.Fatal("result ordering changed under parallelism")
		}
		as := a[i].Pair.CESRM.Collector.TotalCounts()
		bs := b[i].Pair.CESRM.Collector.TotalCounts()
		if as != bs {
			t.Fatalf("trace %d: parallel run diverged: %+v vs %+v", a[i].Entry.Index, as, bs)
		}
		if a[i].Pair.SRM.Crossings != b[i].Pair.SRM.Crossings {
			t.Fatalf("trace %d: crossings diverged", a[i].Entry.Index)
		}
	}
}
