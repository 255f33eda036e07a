package lossinfer

import (
	"math"
	"testing"
	"time"

	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// y builds 0 -> 1 -> {2, 3}: one router, two receivers.
func yTree(t *testing.T) *topology.Tree {
	t.Helper()
	return topology.MustNew([]topology.NodeID{topology.None, 0, 1, 1})
}

// yTrace: 10 packets; receiver 2 loses {0,1,2}, receiver 3 loses {2}.
func yTrace(t *testing.T) *trace.Trace {
	t.Helper()
	loss := make([][]bool, 2)
	loss[0] = make([]bool, 10)
	loss[1] = make([]bool, 10)
	loss[0][0], loss[0][1], loss[0][2] = true, true, true
	loss[1][2] = true
	tr, err := trace.FromRows("hand", yTree(t), 80*time.Millisecond, loss, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEstimateYajnikHandComputed(t *testing.T) {
	rates := EstimateYajnik(yTrace(t))
	// Packet 2 was lost by everyone: seen below node 1 on 9 of 10
	// packets, so link 1 loses 1/10. Link 2 loses the 2 packets (0,1)
	// that reached node 1 but not receiver 2: 2/9. Link 3 loses nothing.
	if got := rates[1]; math.Abs(got-0.1) > 1e-12 {
		t.Errorf("rate(link1) = %v, want 0.1", got)
	}
	if got := rates[2]; math.Abs(got-2.0/9.0) > 1e-12 {
		t.Errorf("rate(link2) = %v, want 2/9", got)
	}
	if got := rates[3]; got > rateFloor {
		t.Errorf("rate(link3) = %v, want ~0", got)
	}
}

func TestEstimateMLECloseToYajnikOnGenerated(t *testing.T) {
	tr := trace.MustGenerate(trace.GenSpec{
		Name:         "mle",
		Topology:     topology.GenSpec{Receivers: 10, Depth: 4},
		NumPackets:   30000,
		Period:       40 * time.Millisecond,
		TargetLosses: 9000,
		Seed:         13,
	})
	y := EstimateYajnik(tr)
	m := EstimateMLE(tr)
	mean, max, err := Compare(y, m)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports the two methods "yield very similar link loss
	// probability estimates" on its traces.
	if mean > 0.02 {
		t.Errorf("mean |yajnik-mle| = %.4f, want <= 0.02", mean)
	}
	if max > 0.15 {
		t.Errorf("max |yajnik-mle| = %.4f, want <= 0.15", max)
	}
}

func TestCompareErrors(t *testing.T) {
	if _, _, err := Compare(LinkRates{1: 0.5}, LinkRates{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := Compare(LinkRates{1: 0.5}, LinkRates{2: 0.5}); err == nil {
		t.Fatal("key mismatch accepted")
	}
}

func TestAttributeSingleReceiverPattern(t *testing.T) {
	tree := yTree(t)
	rates := LinkRates{1: 0.1, 2: 0.05, 3: 0.05}
	attr, err := NewAttribution(tree, rates)
	if err != nil {
		t.Fatal(err)
	}
	// Receiver 2 (bit 0) lost alone: the only combination is {link 2}.
	pr, err := attr.Attribute(0b01)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Best) != 1 || pr.Best[0] != 2 {
		t.Fatalf("Best = %v, want [2]", pr.Best)
	}
	if pr.NumCombos != 1 {
		t.Fatalf("NumCombos = %v, want 1", pr.NumCombos)
	}
	if math.Abs(pr.BestProb-1) > 1e-12 {
		t.Fatalf("BestProb = %v, want 1", pr.BestProb)
	}
}

func TestAttributeAllLostPattern(t *testing.T) {
	tree := yTree(t)
	rates := LinkRates{1: 0.1, 2: 0.05, 3: 0.05}
	attr, err := NewAttribution(tree, rates)
	if err != nil {
		t.Fatal(err)
	}
	// Both lost: combinations are {1} with p=0.1 and {2,3} with
	// p=0.9*0.05*0.05=0.00225. Best is {1} with normalized probability
	// 0.1/(0.1+0.00225).
	pr, err := attr.Attribute(0b11)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Best) != 1 || pr.Best[0] != 1 {
		t.Fatalf("Best = %v, want [1]", pr.Best)
	}
	if pr.NumCombos != 2 {
		t.Fatalf("NumCombos = %v, want 2", pr.NumCombos)
	}
	want := 0.1 / (0.1 + 0.00225)
	if math.Abs(pr.BestProb-want) > 1e-9 {
		t.Fatalf("BestProb = %v, want %v", pr.BestProb, want)
	}
}

func TestAttributePrefersLeafCombinationWhenSharedLinkClean(t *testing.T) {
	tree := yTree(t)
	// Shared link almost never loses; leaf links often do.
	rates := LinkRates{1: 0.001, 2: 0.4, 3: 0.4}
	attr, err := NewAttribution(tree, rates)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := attr.Attribute(0b11)
	if err != nil {
		t.Fatal(err)
	}
	// {2,3}: 0.999*0.16 = 0.1598 beats {1}: 0.001.
	if len(pr.Best) != 2 || pr.Best[0] != 2 || pr.Best[1] != 3 {
		t.Fatalf("Best = %v, want [2 3]", pr.Best)
	}
}

func TestAttributeDeeperTreeCombinationCount(t *testing.T) {
	//	     0
	//	     |
	//	     1
	//	    / \
	//	   2   3
	//	  / \ / \
	//	 4  5 6  7   (receivers)
	tree := topology.MustNew([]topology.NodeID{topology.None, 0, 1, 1, 2, 2, 3, 3})
	rates := LinkRates{1: 0.1, 2: 0.1, 3: 0.1, 4: 0.1, 5: 0.1, 6: 0.1, 7: 0.1}
	attr, err := NewAttribution(tree, rates)
	if err != nil {
		t.Fatal(err)
	}
	// All four receivers lost. Combinations: {1}, {2,3}, {2,6,7},
	// {4,5,3}, {4,5,6,7} — count follows g(n) = prod(1+g(child)).
	pr, err := attr.Attribute(0b1111)
	if err != nil {
		t.Fatal(err)
	}
	if pr.NumCombos != 5 {
		t.Fatalf("NumCombos = %v, want 5", pr.NumCombos)
	}
	if len(pr.Best) != 1 || pr.Best[0] != 1 {
		t.Fatalf("Best = %v, want [1]", pr.Best)
	}
	// Partial pattern: only the left pair lost => {2} or {4,5}.
	pr, err = attr.Attribute(0b0011)
	if err != nil {
		t.Fatal(err)
	}
	if pr.NumCombos != 2 {
		t.Fatalf("partial NumCombos = %v, want 2", pr.NumCombos)
	}
	if len(pr.Best) != 1 || pr.Best[0] != 2 {
		t.Fatalf("partial Best = %v, want [2]", pr.Best)
	}
}

func TestAttributeRejectsBadInput(t *testing.T) {
	tree := yTree(t)
	if _, err := NewAttribution(tree, LinkRates{1: 0.1}); err == nil {
		t.Fatal("accepted wrong rate count")
	}
	attr, err := NewAttribution(tree, LinkRates{1: 0.1, 2: 0.1, 3: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attr.Attribute(0); err == nil {
		t.Fatal("accepted empty pattern")
	}
	if _, err := attr.Attribute(0b100); err == nil {
		t.Fatal("accepted pattern with unknown receiver bits")
	}
}

func TestAttributeMemoizes(t *testing.T) {
	tree := yTree(t)
	attr, err := NewAttribution(tree, LinkRates{1: 0.1, 2: 0.1, 3: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := attr.Attribute(0b11)
	b, _ := attr.Attribute(0b11)
	if a != b {
		t.Fatal("repeated pattern not memoized")
	}
}

func TestInferExplainsEveryLossyPacket(t *testing.T) {
	tr := trace.MustGenerate(trace.GenSpec{
		Name:         "infer",
		Topology:     topology.GenSpec{Receivers: 9, Depth: 4},
		NumPackets:   8000,
		Period:       40 * time.Millisecond,
		TargetLosses: 2500,
		Seed:         17,
	})
	res, err := Infer(tr, EstimateYajnik(tr))
	if err != nil {
		t.Fatal(err)
	}
	// Invariant: for every packet, receiver r is below a selected drop
	// link iff r lost the packet.
	root := tr.Tree.Root()
	for i := 0; i < tr.NumPackets(); i++ {
		drops := res.Drops[i]
		if (drops == nil) != (tr.LossPattern(i) == 0) {
			t.Fatalf("packet %d: drops/pattern mismatch", i)
		}
		for ri, r := range tr.Tree.Receivers() {
			below := false
			for _, l := range tr.Tree.PathLinks(root, r) {
				for _, d := range drops {
					if l == d {
						below = true
					}
				}
			}
			if below != tr.Lost(ri, i) {
				t.Fatalf("packet %d receiver %d: selected combination does not reproduce the loss pattern", i, ri)
			}
		}
	}
	if res.DistinctPatterns <= 0 {
		t.Fatal("no distinct patterns recorded")
	}
	if len(res.SelectedProbs) != countLossy(tr) {
		t.Fatalf("SelectedProbs has %d entries, want %d", len(res.SelectedProbs), countLossy(tr))
	}
}

func countLossy(tr *trace.Trace) int {
	n := 0
	for i := 0; i < tr.NumPackets(); i++ {
		if tr.LossPattern(i) != 0 {
			n++
		}
	}
	return n
}

func TestInferConfidenceHighOnSyntheticTraces(t *testing.T) {
	// The paper's §4.2 claim: selections are predominantly accurate,
	// with >90% of selected combinations exceeding probability 0.95 on
	// 13 of 14 traces. Synthetic bursty traces should behave similarly.
	tr := trace.MustGenerate(trace.GenSpec{
		Name:         "conf",
		Topology:     topology.GenSpec{Receivers: 10, Depth: 4},
		NumPackets:   20000,
		Period:       80 * time.Millisecond,
		TargetLosses: 6000,
		Seed:         29,
	})
	res, err := Infer(tr, EstimateYajnik(tr))
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Confidence(0.95); c < 0.7 {
		t.Errorf("confidence(0.95) = %.3f, want >= 0.7", c)
	}
	if c := res.Confidence(0.0); c != 1 {
		t.Errorf("confidence(0) = %.3f, want 1", c)
	}
}

func TestGroundTruthAccuracy(t *testing.T) {
	tr := trace.MustGenerate(trace.GenSpec{
		Name:         "gt",
		Topology:     topology.GenSpec{Receivers: 8, Depth: 4},
		NumPackets:   15000,
		Period:       80 * time.Millisecond,
		TargetLosses: 4000,
		Seed:         31,
	})
	res, err := Infer(tr, EstimateYajnik(tr))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := GroundTruthAccuracy(tr, res)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Errorf("ground-truth accuracy %.3f, want >= 0.6", acc)
	}

	noTruth := *tr
	noTruth.TrueDrops = nil
	if _, err := GroundTruthAccuracy(&noTruth, res); err == nil {
		t.Fatal("accepted trace without ground truth")
	}
}

func TestConfidenceEmptyResult(t *testing.T) {
	r := &Result{}
	if r.Confidence(0.95) != 1 {
		t.Fatal("empty result should be vacuously confident")
	}
}

func TestLogAddExp(t *testing.T) {
	got := logAddExp(math.Log(0.3), math.Log(0.2))
	if math.Abs(got-math.Log(0.5)) > 1e-12 {
		t.Fatalf("logAddExp = %v, want log(0.5)", got)
	}
	if got := logAddExp(math.Inf(-1), math.Log(0.7)); math.Abs(got-math.Log(0.7)) > 1e-12 {
		t.Fatal("logAddExp with -inf wrong")
	}
	if got := logAddExp(math.Log(0.7), math.Inf(-1)); math.Abs(got-math.Log(0.7)) > 1e-12 {
		t.Fatal("logAddExp with -inf (second arg) wrong")
	}
}

func TestEqualLinkSets(t *testing.T) {
	if !equalLinkSets([]topology.LinkID{3, 1}, []topology.LinkID{1, 3}) {
		t.Fatal("order should not matter")
	}
	if equalLinkSets([]topology.LinkID{1}, []topology.LinkID{1, 3}) {
		t.Fatal("length mismatch accepted")
	}
	if equalLinkSets([]topology.LinkID{1, 2}, []topology.LinkID{1, 3}) {
		t.Fatal("different sets equal")
	}
}

func BenchmarkEstimateYajnik(b *testing.B) {
	tr := trace.MustGenerate(trace.GenSpec{
		Name:         "bench",
		Topology:     topology.GenSpec{Receivers: 12, Depth: 5},
		NumPackets:   10000,
		Period:       40 * time.Millisecond,
		TargetLosses: 3000,
		Seed:         1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EstimateYajnik(tr)
	}
}

func BenchmarkInfer(b *testing.B) {
	tr := trace.MustGenerate(trace.GenSpec{
		Name:         "bench",
		Topology:     topology.GenSpec{Receivers: 12, Depth: 5},
		NumPackets:   10000,
		Period:       40 * time.Millisecond,
		TargetLosses: 3000,
		Seed:         1,
	})
	rates := EstimateYajnik(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Infer(tr, rates); err != nil {
			b.Fatal(err)
		}
	}
}

// TestChainTopologyUnidentifiableLinks exercises the single-child chain
// case: per-link rates on a chain are not individually identifiable
// from leaf observations, and both estimators conventionally attribute
// the chain's combined loss to its topmost link.
func TestChainTopologyUnidentifiableLinks(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 (single receiver at the end of a chain).
	tree := topology.MustNew([]topology.NodeID{topology.None, 0, 1, 2})
	loss := make([][]bool, 1)
	loss[0] = make([]bool, 10)
	loss[0][2], loss[0][5] = true, true // 2 of 10 lost
	tr, err := trace.FromRows("chain", tree, 80*time.Millisecond, loss, nil)
	if err != nil {
		t.Fatal(err)
	}

	y := EstimateYajnik(tr)
	if math.Abs(y[1]-0.2) > 1e-12 {
		t.Fatalf("chain-top rate = %v, want 0.2", y[1])
	}
	if y[2] > rateFloor || y[3] > rateFloor {
		t.Fatalf("lower chain links should carry no loss: %v %v", y[2], y[3])
	}
	m := EstimateMLE(tr)
	if math.Abs(m[1]-0.2) > 1e-9 {
		t.Fatalf("MLE chain-top rate = %v, want 0.2", m[1])
	}

	// Attribution on a chain: the only-receiver pattern has three
	// producing combinations ({1},{2},{3}); the top link dominates.
	res, err := Infer(tr, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, drops := range res.Drops {
		if (drops != nil) != tr.Lost(0, i) {
			t.Fatalf("packet %d attribution mismatch", i)
		}
		if drops != nil && drops[0] != 1 {
			t.Fatalf("packet %d attributed to link %d, want chain top 1", i, drops[0])
		}
	}
}

// TestAttributeDeterministicAcrossCalls guards the memoization from
// aliasing bugs: repeated attributions of interleaved patterns must be
// stable.
func TestAttributeDeterministicAcrossCalls(t *testing.T) {
	tree := topology.MustNew([]topology.NodeID{topology.None, 0, 1, 1, 0, 4, 4})
	rates := LinkRates{1: 0.1, 2: 0.2, 3: 0.05, 4: 0.15, 5: 0.1, 6: 0.3}
	attr, err := NewAttribution(tree, rates)
	if err != nil {
		t.Fatal(err)
	}
	patterns := []uint64{0b0001, 0b0011, 0b1111, 0b1100, 0b0101}
	first := map[uint64]*PatternResult{}
	for _, x := range patterns {
		r, err := attr.Attribute(x)
		if err != nil {
			t.Fatal(err)
		}
		first[x] = r
	}
	for round := 0; round < 3; round++ {
		for _, x := range patterns {
			r, err := attr.Attribute(x)
			if err != nil {
				t.Fatal(err)
			}
			if r != first[x] {
				t.Fatalf("pattern %b re-attributed to a different result", x)
			}
		}
	}
}
