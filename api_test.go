package cesrm_test

import (
	"bytes"
	"fmt"
	"log"
	"testing"
	"time"

	"cesrm"
)

// TestPublicAPIEndToEnd drives the whole library through the public
// facade only: generate a trace, inspect locality, run both protocols,
// and read the paper's metrics.
func TestPublicAPIEndToEnd(t *testing.T) {
	tr, err := cesrm.GenerateTrace(cesrm.TraceSpec{
		Name:         "api",
		Topology:     cesrm.TreeSpec{Receivers: 8, Depth: 3},
		NumPackets:   1500,
		Period:       80 * time.Millisecond,
		TargetLosses: 450,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if loc := cesrm.AnalyzeLocality(tr); loc.LocalityRatio() < 2 {
		t.Fatalf("locality ratio %.1f too low", loc.LocalityRatio())
	}

	pair, err := cesrm.RunPair(tr, cesrm.RunConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if pair.LatencyReductionPct() <= 0 {
		t.Fatal("CESRM not faster than SRM via public API")
	}
	if _, ok := pair.ExpeditedSuccess(); !ok {
		t.Fatal("no expedited statistics")
	}
	if pair.SRM.Fingerprint == "" || pair.SRM.Fingerprint == pair.CESRM.Fingerprint {
		t.Fatalf("bad fingerprints: SRM %q CESRM %q", pair.SRM.Fingerprint, pair.CESRM.Fingerprint)
	}

	// The determinism audit and the event timeline, via the facade.
	res, err := cesrm.VerifyDeterminism(cesrm.RunConfig{Trace: tr, Protocol: cesrm.CESRM, Seed: 9, KeepEvents: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != pair.CESRM.Fingerprint {
		t.Fatal("audit run's fingerprint differs from the pair's CESRM run")
	}
	var buf bytes.Buffer
	if err := cesrm.WriteEventsNDJSON(&buf, res.Events); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty event timeline")
	}
}

func TestPublicAPITraceRoundTrip(t *testing.T) {
	entry, ok := cesrm.TraceByName("WRN951216")
	if !ok {
		t.Fatal("catalog lookup failed")
	}
	tr, err := entry.Load(0.005)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cesrm.MarshalTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := cesrm.UnmarshalTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalLosses() != tr.TotalLosses() {
		t.Fatal("round trip changed the trace")
	}
	if len(cesrm.TraceCatalog()) != 14 {
		t.Fatal("catalog size wrong")
	}
}

func TestPublicAPIInference(t *testing.T) {
	tr, err := cesrm.GenerateTrace(cesrm.TraceSpec{
		Name:         "apiinfer",
		Topology:     cesrm.TreeSpec{Receivers: 6, Depth: 3},
		NumPackets:   4000,
		Period:       40 * time.Millisecond,
		TargetLosses: 1000,
		Seed:         6,
	})
	if err != nil {
		t.Fatal(err)
	}
	y := cesrm.EstimateYajnik(tr)
	m := cesrm.EstimateMLE(tr)
	if len(y) != len(m) || len(y) != tr.Tree.NumLinks() {
		t.Fatal("estimator outputs mismatched")
	}
	res, err := cesrm.Infer(tr, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confidence(0.95) <= 0 {
		t.Fatal("no inference confidence")
	}
}

// TestPublicAPIChaos drives the fault-injection harness through the
// facade: parse a fault spec, run a trace under churn, and replay it to
// the identical fingerprint.
func TestPublicAPIChaos(t *testing.T) {
	tr, err := cesrm.GenerateTrace(cesrm.TraceSpec{
		Name:         "apichaos",
		Topology:     cesrm.TreeSpec{Receivers: 8, Depth: 3},
		NumPackets:   300,
		Period:       80 * time.Millisecond,
		TargetLosses: 90,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := tr.Tree.Receivers()[0]
	spec, err := cesrm.ParseChaosSpec(fmt.Sprintf(
		"crash@5s:host=%d,purge;restart@9s:host=%d;jitter@4s-6s:max=2ms", victim, victim))
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(tr.Tree); err != nil {
		t.Fatal(err)
	}
	res, err := cesrm.VerifyDeterminism(cesrm.RunConfig{
		Trace: tr, Protocol: cesrm.CESRM, Seed: 3, Chaos: spec,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint == "" {
		t.Fatal("chaos run produced no fingerprint")
	}
	if got := len(cesrm.ChaosScenarios(tr.Tree, 30*time.Second)); got < 6 {
		t.Fatalf("scenario matrix has %d entries, want at least 6", got)
	}
}

// TestPublicAPIManualAssembly builds a simulation from the low-level
// public pieces, without the experiment harness.
func TestPublicAPIManualAssembly(t *testing.T) {
	eng := cesrm.NewEngine()
	tree, err := cesrm.NewTree([]cesrm.NodeID{cesrm.None, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	net, err := cesrm.NewNetwork(eng, tree, cesrm.DefaultNetworkConfig())
	if err != nil {
		t.Fatal(err)
	}
	collector := cesrm.NewCollector()
	rng := cesrm.NewRNG(1)

	agents := map[cesrm.NodeID]*cesrm.Agent{}
	for _, id := range []cesrm.NodeID{0, 2, 3} {
		a, err := cesrm.NewAgent(eng, net, rng.Split(), id, cesrm.DefaultConfig(), collector)
		if err != nil {
			t.Fatal(err)
		}
		agents[id] = a
		a.StartSessions()
	}
	// Drop packet 1 on receiver 2's leaf link.
	net.SetDropFunc(func(p *cesrm.Packet, link cesrm.NodeID, down bool) bool {
		m, ok := p.Msg.(*cesrm.DataMsg)
		return ok && down && link == 2 && m.Seq == 1
	})
	for i := 0; i < 3; i++ {
		seq := i
		eng.ScheduleAt(cesrm.Time(3*time.Second)+cesrm.Time(time.Duration(i)*100*time.Millisecond), func(cesrm.Time) {
			agents[0].Transmit(seq)
		})
	}
	eng.RunUntil(cesrm.Time(20 * time.Second))
	for _, a := range agents {
		a.Stop()
	}
	eng.Run()
	if agents[2].SRM().MissingIn(0, 3) != 0 {
		t.Fatal("manual assembly failed to recover")
	}
	if len(collector.Recoveries()) == 0 {
		t.Fatal("no recoveries observed")
	}
}

// ExampleRunPair generates a small synthetic multicast trace, replays it
// under SRM and CESRM with the paper's parameters (C1=C2=2, D1=D2=1,
// 20 ms links, 1.5 Mbps), and prints the paper's headline comparison.
func ExampleRunPair() {
	// A 10-receiver multicast tree with bursty loss on a few links,
	// mimicking the MBone traces of Yajnik et al.
	tr, err := cesrm.GenerateTrace(cesrm.TraceSpec{
		Name:         "quickstart",
		Topology:     cesrm.TreeSpec{Receivers: 10, Depth: 4},
		NumPackets:   5000,
		Period:       80 * time.Millisecond,
		TargetLosses: 1500,
		Seed:         42,
	})
	if err != nil {
		log.Fatal(err)
	}
	loc := cesrm.AnalyzeLocality(tr)
	fmt.Printf("trace: %v\n", tr.ComputeStats())
	fmt.Printf("loss locality: P(loss|loss) is %.0fx the unconditional loss rate; mean burst %.1f packets\n\n",
		loc.LocalityRatio(), loc.MeanBurstLen)

	pair, err := cesrm.RunPair(tr, cesrm.RunConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	srmLat := pair.SRM.Collector.OverallNormalized(pair.SRM.RTT)
	cesrmLat := pair.CESRM.Collector.OverallNormalized(pair.CESRM.RTT)
	fmt.Printf("SRM   mean recovery latency: %.2f RTT over %d recoveries\n", srmLat.MeanRTT, srmLat.Count)
	fmt.Printf("CESRM mean recovery latency: %.2f RTT over %d recoveries\n", cesrmLat.MeanRTT, cesrmLat.Count)
	fmt.Printf("latency reduction: %.0f%% (paper reports roughly 50%%)\n\n", pair.LatencyReductionPct())

	if succ, ok := pair.ExpeditedSuccess(); ok {
		fmt.Printf("expedited recoveries successful: %.0f%% (paper: >70%%)\n", succ)
	}
	o := pair.Overhead()
	fmt.Printf("CESRM retransmission overhead: %.0f%% of SRM's (paper: 30-80%%)\n", o.RetransPct)
	fmt.Printf("CESRM control overhead: %.0f%% of SRM's, of which %.0f%% is cheap unicast\n",
		o.ControlTotalPct(), 100*o.ControlUnicastPct/o.ControlTotalPct())
	// Output:
	// trace: quickstart rcvrs=10  depth=4 period=80ms dur=6m40s pkts=5000 losses=1471
	// loss locality: P(loss|loss) is 30x the unconditional loss rate; mean burst 8.0 packets
	//
	// SRM   mean recovery latency: 2.55 RTT over 1471 recoveries
	// CESRM mean recovery latency: 1.08 RTT over 1471 recoveries
	// latency reduction: 58% (paper reports roughly 50%)
	//
	// expedited recoveries successful: 91% (paper: >70%)
	// CESRM retransmission overhead: 27% of SRM's (paper: 30-80%)
	// CESRM control overhead: 30% of SRM's, of which 44% is cheap unicast
}
