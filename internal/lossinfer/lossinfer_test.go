package lossinfer

import (
	"math"
	"slices"
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
	attr, err := newAttribution(tree, rates)
	if err != nil {
		t.Fatal(err)
	}
	// Receiver 2 (index 0) lost alone: the only combination is {link 2}.
	pr, err := attr.attribute([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.best) != 1 || pr.best[0] != 2 {
		t.Fatalf("Best = %v, want [2]", pr.best)
	}
	if pr.numCombos != 1 {
		t.Fatalf("NumCombos = %v, want 1", pr.numCombos)
	}
	if math.Abs(pr.bestProb-1) > 1e-12 {
		t.Fatalf("BestProb = %v, want 1", pr.bestProb)
	}
}

func TestAttributeAllLostPattern(t *testing.T) {
	tree := yTree(t)
	rates := LinkRates{1: 0.1, 2: 0.05, 3: 0.05}
	attr, err := newAttribution(tree, rates)
	if err != nil {
		t.Fatal(err)
	}
	// Both lost: combinations are {1} with p=0.1 and {2,3} with
	// p=0.9*0.05*0.05=0.00225. Best is {1} with normalized probability
	// 0.1/(0.1+0.00225).
	pr, err := attr.attribute([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.best) != 1 || pr.best[0] != 1 {
		t.Fatalf("Best = %v, want [1]", pr.best)
	}
	if pr.numCombos != 2 {
		t.Fatalf("NumCombos = %v, want 2", pr.numCombos)
	}
	want := 0.1 / (0.1 + 0.00225)
	if math.Abs(pr.bestProb-want) > 1e-9 {
		t.Fatalf("BestProb = %v, want %v", pr.bestProb, want)
	}
}

func TestAttributePrefersLeafCombinationWhenSharedLinkClean(t *testing.T) {
	tree := yTree(t)
	// Shared link almost never loses; leaf links often do.
	rates := LinkRates{1: 0.001, 2: 0.4, 3: 0.4}
	attr, err := newAttribution(tree, rates)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := attr.attribute([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// {2,3}: 0.999*0.16 = 0.1598 beats {1}: 0.001.
	if len(pr.best) != 2 || pr.best[0] != 2 || pr.best[1] != 3 {
		t.Fatalf("Best = %v, want [2 3]", pr.best)
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
	attr, err := newAttribution(tree, rates)
	if err != nil {
		t.Fatal(err)
	}
	// All four receivers lost. Combinations: {1}, {2,3}, {2,6,7},
	// {4,5,3}, {4,5,6,7} — count follows g(n) = prod(1+g(child)).
	pr, err := attr.attribute([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if pr.numCombos != 5 {
		t.Fatalf("NumCombos = %v, want 5", pr.numCombos)
	}
	if len(pr.best) != 1 || pr.best[0] != 1 {
		t.Fatalf("Best = %v, want [1]", pr.best)
	}
	// Partial pattern: only the left pair lost => {2} or {4,5}.
	pr, err = attr.attribute([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if pr.numCombos != 2 {
		t.Fatalf("partial NumCombos = %v, want 2", pr.numCombos)
	}
	if len(pr.best) != 1 || pr.best[0] != 2 {
		t.Fatalf("partial Best = %v, want [2]", pr.best)
	}
}

func TestAttributeRejectsBadInput(t *testing.T) {
	tree := yTree(t)
	if _, err := newAttribution(tree, LinkRates{1: 0.1}); err == nil {
		t.Fatal("accepted wrong rate count")
	}
	attr, err := newAttribution(tree, LinkRates{1: 0.1, 2: 0.1, 3: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attr.attribute(nil); err == nil {
		t.Fatal("accepted empty pattern")
	}
	if _, err := attr.attribute([]int{2}); err == nil {
		t.Fatal("accepted pattern with an unknown receiver")
	}
	// A refused pattern leaves no stamped counters behind.
	if _, err := attr.attribute([]int{0, 2}); err == nil {
		t.Fatal("accepted pattern with an unknown receiver")
	}
	pr, err := attr.attribute([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.best) != 1 || pr.best[0] != 2 || pr.numCombos != 1 {
		t.Fatalf("after a refused pattern: best %v over %v combinations, want [2] over 1", pr.best, pr.numCombos)
	}
}

func TestAttributeMemoizes(t *testing.T) {
	tree := yTree(t)
	attr, err := newAttribution(tree, LinkRates{1: 0.1, 2: 0.1, 3: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := attr.attribute([]int{0, 1})
	b, _ := attr.attribute([]int{0, 1})
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
	checkExplains(t, tr, res)
}

// checkExplains asserts that every packet's selected combination
// reproduces its loss pattern: receiver r is below a selected drop link
// iff r lost the packet. It also checks one probability per lossy packet.
func checkExplains(t *testing.T, tr *trace.Trace, res *Result) {
	t.Helper()
	root := tr.Tree.Root()
	lossy := 0
	var lost []int
	for i := 0; i < tr.NumPackets(); i++ {
		lost = tr.LostReceivers(i, lost[:0])
		if (res.Drops[i] == nil) != (len(lost) == 0) {
			t.Fatalf("packet %d: drops/pattern mismatch", i)
		}
		if len(lost) > 0 {
			lossy++
		}
		for ri, r := range tr.Tree.Receivers() {
			below := false
			for _, l := range tr.Tree.PathLinks(root, r) {
				if slices.Contains(res.Drops[i], l) {
					below = true
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
	if len(res.SelectedProbs) != lossy {
		t.Fatalf("SelectedProbs has %d entries, want %d", len(res.SelectedProbs), lossy)
	}
}

// TestInferWideTrace runs a 150-receiver trace end to end: every selected
// combination must reproduce its packet's loss pattern exactly.
func TestInferWideTrace(t *testing.T) {
	tr := trace.MustGenerate(trace.GenSpec{
		Name:         "wide",
		Topology:     topology.GenSpec{Receivers: 150, Depth: 6},
		NumPackets:   1500,
		Period:       40 * time.Millisecond,
		TargetLosses: 6000,
		Seed:         41,
	})
	res, err := Infer(tr, EstimateYajnik(tr))
	if err != nil {
		t.Fatal(err)
	}
	checkExplains(t, tr, res)
	acc, err := GroundTruthAccuracy(tr, res)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.5 {
		t.Fatalf("ground-truth accuracy %.2f below sanity floor on a wide trace", acc)
	}
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
	attr, err := newAttribution(tree, y)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := attr.attribute([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if pr.numCombos != 3 || len(pr.best) != 1 || pr.best[0] != 1 {
		t.Fatalf("chain pattern: best %v over %v combinations, want [1] over 3", pr.best, pr.numCombos)
	}
}

// TestAttributeDeterministicAcrossCalls guards the memoization from
// aliasing bugs: repeated attributions of interleaved patterns must be
// stable.
func TestAttributeDeterministicAcrossCalls(t *testing.T) {
	tree := topology.MustNew([]topology.NodeID{topology.None, 0, 1, 1, 0, 4, 4})
	rates := LinkRates{1: 0.1, 2: 0.2, 3: 0.05, 4: 0.15, 5: 0.1, 6: 0.3}
	attr, err := newAttribution(tree, rates)
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][]int{{0}, {0, 1}, {0, 1, 2, 3}, {2, 3}, {0, 2}}
	first := make([]*patternResult, len(patterns))
	for i, x := range patterns {
		r, err := attr.attribute(x)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = r
	}
	for round := 0; round < 3; round++ {
		for i, x := range patterns {
			r, err := attr.attribute(x)
			if err != nil {
				t.Fatal(err)
			}
			if r != first[i] {
				t.Fatalf("pattern %v re-attributed to a different result", x)
			}
		}
	}
	if len(attr.memo) != len(patterns) {
		t.Fatalf("%d memo entries for %d patterns", len(attr.memo), len(patterns))
	}
}
