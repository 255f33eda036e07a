package lossinfer

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// patternResult is the attribution for one observed loss pattern: the
// most probable link combination that produces the pattern, its
// probability normalized over all producing combinations (the paper's
// pC_x(c)), and the number of such combinations.
//
// A combination is an antichain of links: no member is downstream of
// another, because links below a dropped link never see the packet. Its
// occurrence probability multiplies the loss probabilities of its
// members with the success probabilities of every link that is neither
// a member nor downstream of one (the paper's set U).
type patternResult struct {
	// best is the maximum-probability combination, in ascending link
	// order.
	best []topology.LinkID
	// bestProb is the normalized probability of best among all
	// combinations producing the pattern, in (0, 1].
	bestProb float64
	// numCombos is the number of distinct producing combinations,
	// computed in floating point because all-lost patterns on deep trees
	// have combinatorially many.
	numCombos float64
}

// attribution computes per-pattern link attributions for one tree and
// rate estimate, for any number of receivers.
//
// The DP only ever asks two questions of a pattern restricted to a
// subtree: did anything below n get lost, and did everything below n
// get lost? A per-node counter of lost receivers below n, filled by
// climbing root-ward from each lost receiver, answers both in O(1). A
// pattern with L lost receivers costs O(L·depth) to stamp, and the
// solve pass touches only the lossy spine and its direct children.
// Results are memoized by the ascending lost-receiver index list, which
// the traces reward heavily: loss locality means the same patterns
// recur for long runs.
type attribution struct {
	tree       *topology.Tree
	logP       []float64 // per node: log loss rate of its inbound link
	logQ       []float64 // per node: log success rate of its inbound link
	cleanBelow []float64 // per node: sum of logQ over links strictly below
	recvBelow  []int32   // per node: receivers in the subtree rooted at it
	lost       []int32   // scratch: lost receivers below the node, this pattern
	touched    []topology.NodeID
	key        []byte // scratch: the pattern's memo key
	memo       map[string]*patternResult
}

// newAttribution prepares attribution over the tree with the given link
// rates.
func newAttribution(tree *topology.Tree, rates LinkRates) (*attribution, error) {
	if len(rates) != tree.NumLinks() {
		return nil, fmt.Errorf("lossinfer: %d rates for %d links", len(rates), tree.NumLinks())
	}
	a := &attribution{
		tree:       tree,
		logP:       make([]float64, tree.NumNodes()),
		logQ:       make([]float64, tree.NumNodes()),
		cleanBelow: make([]float64, tree.NumNodes()),
		recvBelow:  make([]int32, tree.NumNodes()),
		lost:       make([]int32, tree.NumNodes()),
		memo:       make(map[string]*patternResult),
	}
	// Bottom-up accumulation: process nodes in reverse preorder so
	// children are handled before parents.
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

// logAddExp returns log(exp(a)+exp(b)) stably.
func logAddExp(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// nodeSolution is the dynamic-programming state for one subtree: the
// log-probability summed over all combinations explaining the restricted
// pattern, the log-probability of the best combination, the best
// combination itself, and the combination count.
type nodeSolution struct {
	logSum float64
	logMax float64
	best   []topology.LinkID
	count  float64
}

// attribute returns the attribution for the loss pattern given as the
// ascending indices of the receivers that lost the packet. Results are
// memoized; a hit allocates nothing.
func (a *attribution) attribute(lostIdx []int) (*patternResult, error) {
	a.key = a.key[:0]
	for _, r := range lostIdx {
		a.key = binary.LittleEndian.AppendUint32(a.key, uint32(r))
	}
	if r, ok := a.memo[string(a.key)]; ok {
		return r, nil
	}
	if len(lostIdx) == 0 {
		return nil, fmt.Errorf("lossinfer: empty loss pattern")
	}
	// Stamp per-node lost counts along each receiver's root path.
	receivers := a.tree.Receivers()
	for _, r := range lostIdx {
		if r < 0 || r >= len(receivers) {
			a.unstamp()
			return nil, fmt.Errorf("lossinfer: pattern references unknown receiver %d", r)
		}
		for n := receivers[r]; n != topology.None; n = a.tree.Parent(n) {
			if a.lost[n] == 0 {
				a.touched = append(a.touched, n)
			}
			a.lost[n]++
		}
	}
	sol := a.solve(a.tree.Root())
	a.unstamp()
	if math.IsInf(sol.logSum, -1) {
		return nil, fmt.Errorf("lossinfer: pattern of %d losses has no producing combination", len(lostIdx))
	}
	// The root's combination is a slice solve built for this call alone.
	slices.Sort(sol.best)
	r := &patternResult{
		best:      sol.best,
		bestProb:  math.Exp(sol.logMax - sol.logSum),
		numCombos: sol.count,
	}
	a.memo[string(a.key)] = r
	return r, nil
}

// unstamp clears the lost counters the last pattern set.
func (a *attribution) unstamp() {
	for _, n := range a.touched {
		a.lost[n] = 0
	}
	a.touched = a.touched[:0]
}

// solve computes the DP state for node n explaining the stamped pattern
// restricted to n's subtree, assuming the packet reaches n: lost[n] == 0
// means nothing below n was lost, lost[n] == recvBelow[n] that
// everything was.
//
// This dynamic program computes, exactly, the same quantities the paper
// derives from explicitly enumerating C_x: the per-child options
// multiply independently, a fully-lost child subtree admits either
// "drop on the child link" (probability p, links below marginalized
// out of U) or "child link clean and the subtree explains the rest",
// and a loss-free child subtree forces every link in it clean.
func (a *attribution) solve(n topology.NodeID) nodeSolution {
	if a.lost[n] == 0 {
		// Nothing below n lost: every link strictly below must be clean.
		return nodeSolution{logSum: a.cleanBelow[n], logMax: a.cleanBelow[n], count: 1}
	}
	if a.tree.IsLeaf(n) {
		// A leaf cannot explain its own loss from below; the caller's
		// drop-the-inbound-link option covers it.
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

// Result is the link trace representation of §4.2 for a whole trace: per
// packet, the selected link combination responsible for its losses, plus
// the §4.2 confidence statistics.
type Result struct {
	// Rates are the link loss rates used for attribution.
	Rates LinkRates
	// Drops holds, per packet, the selected combination (nil when the
	// packet was lost by nobody).
	Drops [][]topology.LinkID
	// SelectedProbs holds the normalized probability of each lossy
	// packet's selected combination, in packet order.
	SelectedProbs []float64
	// DistinctPatterns is the number of distinct non-empty loss patterns
	// observed.
	DistinctPatterns int
}

// Infer computes the link trace representation for t using the given
// rates (typically EstimateYajnik(t)).
func Infer(t *trace.Trace, rates LinkRates) (*Result, error) {
	attr, err := newAttribution(t.Tree, rates)
	if err != nil {
		return nil, err
	}
	n := t.NumPackets()
	res := &Result{
		Rates: rates,
		Drops: make([][]topology.LinkID, n),
	}
	var lost []int
	for i := t.NextLossy(0); i < n; i = t.NextLossy(i + 1) {
		lost = t.LostReceivers(i, lost[:0])
		pr, err := attr.attribute(lost)
		if err != nil {
			return nil, fmt.Errorf("lossinfer: packet %d: %w", i, err)
		}
		res.Drops[i] = pr.best
		res.SelectedProbs = append(res.SelectedProbs, pr.bestProb)
	}
	res.DistinctPatterns = len(attr.memo)
	return res, nil
}

// Confidence returns the fraction of lossy packets whose selected
// combination has normalized probability strictly exceeding the
// threshold — the statistic behind the paper's claim that for 13 of 14
// traces more than 90% of selections exceed probability 0.95.
func (r *Result) Confidence(threshold float64) float64 {
	if len(r.SelectedProbs) == 0 {
		return 1
	}
	n := 0
	for _, p := range r.SelectedProbs {
		if p > threshold {
			n++
		}
	}
	return float64(n) / float64(len(r.SelectedProbs))
}

// GroundTruthAccuracy compares the selected combinations against a
// synthetic trace's ground truth, returning the fraction of lossy
// packets whose selected combination matches the true drop set exactly.
// This check goes beyond the paper (which had no ground truth for real
// traces) and is only available for generated traces.
func GroundTruthAccuracy(t *trace.Trace, r *Result) (float64, error) {
	if t.TrueDrops == nil {
		return 0, fmt.Errorf("lossinfer: trace %q carries no ground truth", t.Name)
	}
	lossy, match := 0, 0
	for i := range r.Drops {
		if r.Drops[i] == nil {
			continue
		}
		lossy++
		if equalLinkSets(r.Drops[i], t.TrueDropsAt(i)) {
			match++
		}
	}
	if lossy == 0 {
		return 1, nil
	}
	return float64(match) / float64(lossy), nil
}

func equalLinkSets(a, b []topology.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	if slices.Equal(a, b) { // selections and generated truth are both ascending
		return true
	}
	as, bs := slices.Clone(a), slices.Clone(b)
	slices.Sort(as)
	slices.Sort(bs)
	return slices.Equal(as, bs)
}
