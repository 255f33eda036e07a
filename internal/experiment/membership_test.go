package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// Churn digests of the configurations below, recorded when a run could
// also take its leaves and joins as a membership schedule merged into
// the chaos spec. The chaos.Spec spelling reproduces them byte for byte.
const (
	leaveJoinDigest     = "v2:763b42ae57dc9ce602831ecefa6faafe"
	lateJoinDigest      = "v2:48519c5089927b19e77a643bcf38cf1f"
	departedSRMDigest   = "v2:0f6cd67bb28bb28e05ad80745aaaf790"
	departedCESRMDigest = "v2:2b1401d8734d2e80d2e05e6ba75634d9"
)

// checkDigest fails the test when a run's fingerprint is not the pinned one.
func checkDigest(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s fingerprint %s, pinned %s", name, got, want)
	}
}

// churnSpec spells leave and join faults as a chaos spec.
func churnSpec(faults ...chaos.Fault) *chaos.Spec {
	return &chaos.Spec{Name: "membership", Faults: faults}
}

// TestMembershipScheduleLeaveJoin drives a mid-session leave and rejoin
// through leave and join chaos faults and checks the headline
// properties: the run completes fully reliable, the departed host is
// silent for exactly the absence window, and the whole configuration
// replays to the identical fingerprint.
func TestMembershipScheduleLeaveJoin(t *testing.T) {
	tr := smallTrace(t, 15)
	recs := tr.Tree.Receivers()
	victim := recs[2]
	h := chaosHorizon(tr)
	leaveAt, joinAt := h*3/10, h*13/20
	cfg := RunConfig{
		Trace: tr, Protocol: CESRM, Seed: 9,
		Chaos: churnSpec(
			chaos.Fault{Kind: chaos.Leave, At: leaveAt, Host: victim},
			chaos.Fault{Kind: chaos.Join, At: joinAt, Host: victim},
		),
		KeepEvents: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "leave/join", res.Fingerprint, leaveJoinDigest)
	var before, during, after int
	for _, e := range res.Events {
		if e.Host != victim {
			continue
		}
		switch {
		case !e.At.After(sim.Time(leaveAt)):
			before++
		case e.At.After(sim.Time(leaveAt)) && !e.At.After(sim.Time(joinAt)):
			during++
		default:
			after++
		}
	}
	if during != 0 {
		t.Fatalf("host %d emitted %d events while departed [%v, %v]", victim, during, leaveAt, joinAt)
	}
	if before == 0 || after == 0 {
		t.Fatalf("silence property is vacuous: %d events before leave, %d after join", before, after)
	}
	cfg.KeepEvents = false
	if _, err := VerifyDeterminism(cfg, 2); err != nil {
		t.Fatal(err)
	}
}

// TestLateJoinStartsAtPostJoinData admits a receiver only halfway
// through the session: it must stay silent until its Join and converge
// on the post-join suffix (Run's Stage 5 would fail if it chased — or
// missed — anything after its reliability floor).
func TestLateJoinStartsAtPostJoinData(t *testing.T) {
	tr := smallTrace(t, 16)
	recs := tr.Tree.Receivers()
	victim := recs[1]
	h := chaosHorizon(tr)
	joinAt := h / 2
	res, err := Run(RunConfig{
		Trace: tr, Protocol: CESRM, Seed: 10,
		Chaos:      churnSpec(chaos.Fault{Kind: chaos.Join, At: joinAt, Host: victim}),
		KeepEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "late join", res.Fingerprint, lateJoinDigest)
	var before, after int
	for _, e := range res.Events {
		if e.Host != victim {
			continue
		}
		if e.At.After(sim.Time(joinAt)) {
			after++
		} else {
			before++
		}
	}
	if before != 0 {
		t.Fatalf("late joiner %d emitted %d events before its join at %v", victim, before, joinAt)
	}
	if after == 0 {
		t.Fatalf("late joiner %d never became active after joining", victim)
	}
}

// TestMembershipChurnIsProtocolGeneric smokes the graceful leave/join
// cycle across all three protocols.
func TestMembershipChurnIsProtocolGeneric(t *testing.T) {
	tr := smallTrace(t, 6)
	specs := chaos.Scenarios(tr.Tree, chaosHorizon(tr))
	var churn *chaos.Spec
	for _, s := range specs {
		if s.Name == "member-churn" {
			churn = s
		}
	}
	if churn == nil {
		t.Fatal("member-churn scenario missing")
	}
	for _, proto := range []Protocol{SRM, CESRM, LMS} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			if _, err := Run(RunConfig{Trace: tr, Protocol: proto, Seed: 11, Chaos: churn}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQueueOverloadDropsAndRecovers throttles the links far below the
// transmission rate and engages a finite queue cap mid-run: the FIFO
// must overflow (deterministic tail drops, counted separately from
// channel loss) and every congestion-dropped packet must still be
// recovered through the ordinary repair machinery — Run fails if any
// receiver finishes incomplete.
func TestQueueOverloadDropsAndRecovers(t *testing.T) {
	tr := smallTrace(t, 18)
	h := chaosHorizon(tr)
	net := netsim.DefaultConfig()
	// 50 kbit/s serializes a 1 KB payload in ~164 ms, twice the 80 ms
	// packet period: during the cap window the queue must grow without
	// bound, so a cap of 2 overflows within a few packets.
	net.Bandwidth = 50e3
	spec := &chaos.Spec{Name: "qcap", Faults: []chaos.Fault{
		{Kind: chaos.QueueCap, At: h / 5, Until: h/5 + 5*time.Second, Cap: 2},
	}}
	res, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 5, Net: net, Chaos: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueDrops == 0 {
		t.Fatal("queue-cap window produced no queue drops")
	}
	if res.Abandoned != 0 {
		t.Fatalf("congestion loss must be recovered, not abandoned; got %d abandonments", res.Abandoned)
	}
}

// TestQueueCapDeterminism replays a queue-overload configuration and
// requires byte-identical fingerprints: tail drops are a pure function
// of arrival order, never of wall-clock or map iteration.
func TestQueueCapDeterminism(t *testing.T) {
	tr := smallTrace(t, 18)
	h := chaosHorizon(tr)
	net := netsim.DefaultConfig()
	net.Bandwidth = 50e3
	spec := &chaos.Spec{Name: "qcap", Faults: []chaos.Fault{
		{Kind: chaos.QueueCap, At: h / 5, Until: h/5 + 5*time.Second, Cap: 2},
	}}
	if _, err := VerifyDeterminism(RunConfig{Trace: tr, Protocol: CESRM, Seed: 5, Net: net, Chaos: spec}, 2); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedRetryAbandonment is the regression test for the
// bounded-retry degradation bound: a loss whose recovery traffic is
// permanently severed must be abandoned after exactly
// Params.MaxRequestRounds request rounds — with the virtual clock held
// to a hard budget, so a regression to unbounded exponential back-off
// (the historical clock-runaway bug class) fails as a budget abort
// rather than hanging or overflowing.
func TestBoundedRetryAbandonment(t *testing.T) {
	tr := smallTrace(t, 17)
	// Pick a packet the first receiver loses; severing all repair
	// traffic for it makes that loss structurally unrecoverable.
	target := -1
	for seq := 100; seq < tr.NumPackets(); seq++ {
		if tr.Lost(0, seq) {
			target = seq
			break
		}
	}
	if target < 0 {
		t.Fatal("trace has no loss at receiver 0")
	}
	const rounds = 4
	p := srm.DefaultParams()
	p.MaxRequestRounds = rounds
	wrapDrop(t, func(pk *netsim.Packet, link topology.LinkID, down bool) bool {
		switch m := pk.Msg.(type) {
		case *srm.RequestMsg:
			return m.Seq == target
		case *srm.ReplyMsg:
			return m.Seq == target
		}
		return false
	})
	res, err := Run(RunConfig{
		Trace: tr, Protocol: SRM, Seed: 3, SRM: p,
		Budget:     sim.Budget{MaxVirtualTime: sim.Time(5 * time.Minute)},
		KeepEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sim.Completed {
		t.Fatalf("run aborted with status %v: %v", res.Status, res.Diag)
	}
	if res.Abandoned == 0 {
		t.Fatal("unrecoverable loss was never abandoned")
	}
	requests := map[topology.NodeID]int{}
	abandons := map[topology.NodeID]int{}
	for _, e := range res.Events {
		if e.Seq != target {
			continue
		}
		switch e.Kind {
		case stats.EventRequestSent:
			requests[e.Host]++
		case stats.EventRequestAbandoned:
			abandons[e.Host]++
			if e.Round != rounds {
				t.Fatalf("host %d abandoned seq %d after %d rounds, want exactly %d", e.Host, target, e.Round, rounds)
			}
		}
	}
	if len(abandons) == 0 {
		t.Fatal("no abandonment events for the severed packet")
	}
	for host := range abandons {
		if n := requests[host]; n != rounds {
			t.Fatalf("host %d sent %d requests for the severed packet before abandoning, want exactly %d", host, n, rounds)
		}
	}
}

// TestRenderersSurviveDepartedReceivers runs a pair where one receiver
// leaves mid-run and never returns, then drives every table and figure
// renderer over it: the departed host's per-receiver rows must report
// its pre-leave window — finite numbers, never NaN/Inf from a
// zero-count division — and nothing may panic on the truncated stats.
func TestRenderersSurviveDepartedReceivers(t *testing.T) {
	tr := smallTrace(t, 15)
	recs := tr.Tree.Receivers()
	h := chaosHorizon(tr)
	pair, err := RunPair(tr, RunConfig{
		Seed:  9,
		Chaos: churnSpec(chaos.Fault{Kind: chaos.Leave, At: h * 3 / 10, Host: recs[2]}),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "departed SRM", pair.SRM.Fingerprint, departedSRMDigest)
	checkDigest(t, "departed CESRM", pair.CESRM.Fingerprint, departedCESRMDigest)
	for _, row := range pair.Figure1() {
		for name, v := range map[string]float64{"srm": row.SRMMean, "cesrm": row.CESRMMean} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("figure 1 receiver %d: %s mean is %v", row.Receiver, name, v)
			}
		}
	}
	results := []SuiteResult{{Entry: trace.CatalogEntry{Index: 1, Name: "churn-test"}, Pair: pair}}
	var buf bytes.Buffer
	RenderAll(&buf, results)
	RenderFigure1Bars(&buf, results)
	RenderFigure5Bars(&buf, results)
	RenderComparison(&buf, results, 9)
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(buf.String(), bad) {
			t.Fatalf("rendered output contains %s:\n%s", bad, buf.String())
		}
	}
}
