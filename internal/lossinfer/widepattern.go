package lossinfer

import (
	"fmt"
	"math"
	"sort"

	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// Wide-pattern attribution: the same §4.2 dynamic program as
// Attribution, for trees beyond the 64-receiver bitmask limit.
//
// The bitmask DP only ever asks two questions of a pattern restricted
// to a subtree — "did anything below n get lost?" (sub == 0) and "did
// everything below n get lost?" (sub == maskBelow[n]) — so arbitrary
// receiver counts need no bitset arithmetic at all: a per-node counter
// of lost receivers below n, filled by climbing root-ward from each
// lost receiver, answers both in O(1). A pattern with L lost receivers
// costs O(L·depth) to stamp and the solve pass touches only the lossy
// spine and its direct children, which keeps 10k-receiver traces
// tractable. Results are memoized by the sorted lost-receiver index
// list, rewarding the same loss locality the bitmask memo exploits.
type wideAttribution struct {
	tree       *topology.Tree
	logP       []float64 // per node: log loss rate of its inbound link
	logQ       []float64 // per node: log success rate of its inbound link
	cleanBelow []float64 // per node: sum of logQ over links strictly below
	recvBelow  []int32   // per node: receivers in the subtree rooted at it
	lost       []int32   // scratch: lost receivers below the node, this pattern
	touched    []topology.NodeID
	memo       map[string]*PatternResult
}

// newWideAttribution prepares wide attribution over the tree with the
// given link rates.
func newWideAttribution(tree *topology.Tree, rates LinkRates) (*wideAttribution, error) {
	if len(rates) != tree.NumLinks() {
		return nil, fmt.Errorf("lossinfer: %d rates for %d links", len(rates), tree.NumLinks())
	}
	a := &wideAttribution{
		tree:       tree,
		logP:       make([]float64, tree.NumNodes()),
		logQ:       make([]float64, tree.NumNodes()),
		cleanBelow: make([]float64, tree.NumNodes()),
		recvBelow:  make([]int32, tree.NumNodes()),
		lost:       make([]int32, tree.NumNodes()),
		memo:       make(map[string]*PatternResult),
	}
	// Bottom-up accumulation, as in NewAttribution.
	order := tree.NodesBelow(tree.Root())
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n != tree.Root() {
			p := clampRate(rates[n])
			a.logP[n] = math.Log(p)
			a.logQ[n] = math.Log1p(-p)
		}
		if tree.IsReceiver(n) {
			a.recvBelow[n] = 1
		}
		for _, c := range tree.Children(n) {
			a.recvBelow[n] += a.recvBelow[c]
			a.cleanBelow[n] += a.logQ[c] + a.cleanBelow[c]
		}
	}
	return a, nil
}

// attribute computes (memoized) the attribution for the loss pattern
// given as the ascending list of lost receiver nodes; key is its
// canonical encoding. lostRecv must be non-empty.
func (a *wideAttribution) attribute(lostRecv []topology.NodeID, key string) (*PatternResult, error) {
	if r, ok := a.memo[key]; ok {
		return r, nil
	}
	// Stamp per-node lost counts along each receiver's root path.
	for _, r := range lostRecv {
		for n := r; n != topology.None; n = a.tree.Parent(n) {
			if a.lost[n] == 0 {
				a.touched = append(a.touched, n)
			}
			a.lost[n]++
		}
	}
	sol := a.solve(a.tree.Root())
	for _, n := range a.touched {
		a.lost[n] = 0
	}
	a.touched = a.touched[:0]
	if math.IsInf(sol.logSum, -1) {
		return nil, fmt.Errorf("lossinfer: pattern of %d losses has no producing combination", len(lostRecv))
	}
	best := append([]topology.LinkID(nil), sol.best...)
	sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
	r := &PatternResult{
		// Pattern is a uint64 bitmask and cannot represent wide
		// patterns; it stays zero here.
		Best:      best,
		BestProb:  math.Exp(sol.logMax - sol.logSum),
		NumCombos: sol.count,
	}
	a.memo[key] = r
	return r, nil
}

// solve mirrors Attribution.solve with the restricted pattern
// represented by the stamped lost counters: lost[n] == 0 means nothing
// below n was lost, lost[n] == recvBelow[n] means everything was.
func (a *wideAttribution) solve(n topology.NodeID) nodeSolution {
	if a.lost[n] == 0 {
		return nodeSolution{logSum: a.cleanBelow[n], logMax: a.cleanBelow[n], count: 1}
	}
	if a.tree.IsLeaf(n) {
		return nodeSolution{logSum: math.Inf(-1), logMax: math.Inf(-1), count: 0}
	}
	total := nodeSolution{count: 1}
	for _, c := range a.tree.Children(n) {
		inner := a.solve(c)
		// Option 1: child link clean, subtree explains its losses.
		optSum := a.logQ[c] + inner.logSum
		optMax := a.logQ[c] + inner.logMax
		optBest := inner.best
		optCount := inner.count
		// Option 2: child link drops — only when everything below c lost.
		if a.lost[c] == a.recvBelow[c] && a.lost[c] != 0 {
			optSum = logAddExp(optSum, a.logP[c])
			if a.logP[c] > optMax {
				optMax = a.logP[c]
				optBest = []topology.LinkID{c}
			}
			optCount++
		}
		total.logSum += optSum
		total.logMax += optMax
		total.best = append(total.best, optBest...)
		total.count *= optCount
	}
	return total
}

// inferWide is Infer for traces beyond the 64-receiver bitmask limit.
func inferWide(t *trace.Trace, rates LinkRates) (*Result, error) {
	attr, err := newWideAttribution(t.Tree, rates)
	if err != nil {
		return nil, err
	}
	n := t.NumPackets()
	res := &Result{
		Rates: rates,
		Drops: make([][]topology.LinkID, n),
	}
	receivers := t.Tree.Receivers()
	var lostIdx []int
	var lost []topology.NodeID
	var key []byte
	for i := t.NextLossy(0); i < n; i = t.NextLossy(i + 1) {
		lostIdx = t.LostReceivers(i, lostIdx[:0])
		lost = lost[:0]
		key = key[:0]
		for _, r := range lostIdx {
			lost = append(lost, receivers[r])
			key = append(key, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
		pr, err := attr.attribute(lost, string(key))
		if err != nil {
			return nil, fmt.Errorf("lossinfer: packet %d: %w", i, err)
		}
		res.Drops[i] = pr.Best
		res.SelectedProbs = append(res.SelectedProbs, pr.BestProb)
	}
	res.DistinctPatterns = len(attr.memo)
	return res, nil
}
