package lossinfer

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// PatternResult is the attribution for one observed loss pattern: the
// most probable link combination that produces the pattern, its
// probability normalized over all producing combinations (the paper's
// pC_x(c)), and the number of such combinations.
//
// A combination is an antichain of links: no member is downstream of
// another, because links below a dropped link never see the packet. Its
// occurrence probability multiplies the loss probabilities of its
// members with the success probabilities of every link that is neither
// a member nor downstream of one (the paper's set U).
type PatternResult struct {
	// Pattern is the receiver-index bitmask this result explains.
	Pattern uint64
	// Best is the maximum-probability combination, in ascending link
	// order.
	Best []topology.LinkID
	// BestProb is the normalized probability of Best among all
	// combinations producing the pattern, in (0, 1].
	BestProb float64
	// NumCombos is the number of distinct producing combinations,
	// computed in floating point because all-lost patterns on deep trees
	// have combinatorially many.
	NumCombos float64
}

// Attribution computes per-pattern link attributions for one tree and
// rate estimate. It memoizes by pattern, which the traces reward
// heavily: loss locality means the same patterns recur for long runs.
type Attribution struct {
	tree  *topology.Tree
	rates LinkRates

	logP       []float64 // per node: log loss rate of its inbound link
	logQ       []float64 // per node: log success rate of its inbound link
	cleanBelow []float64 // per node: sum of logQ over links strictly below
	maskBelow  []uint64  // per node: receiver-index bits below the node
	memo       map[uint64]*PatternResult
}

// NewAttribution prepares attribution over the tree with the given link
// rates. Trees with more than 64 receivers are rejected (patterns are
// bitmasks, matching the scale of the paper's 17-host traces); Infer
// routes such trees through the equivalent wide-pattern DP instead.
func NewAttribution(tree *topology.Tree, rates LinkRates) (*Attribution, error) {
	if tree.NumReceivers() > 64 {
		return nil, fmt.Errorf("lossinfer: %d receivers exceed the 64-receiver pattern limit", tree.NumReceivers())
	}
	if len(rates) != tree.NumLinks() {
		return nil, fmt.Errorf("lossinfer: %d rates for %d links", len(rates), tree.NumLinks())
	}
	a := &Attribution{
		tree:       tree,
		rates:      rates,
		logP:       make([]float64, tree.NumNodes()),
		logQ:       make([]float64, tree.NumNodes()),
		cleanBelow: make([]float64, tree.NumNodes()),
		maskBelow:  make([]uint64, tree.NumNodes()),
		memo:       make(map[uint64]*PatternResult),
	}
	bit := make(map[topology.NodeID]int, tree.NumReceivers())
	for i, r := range tree.Receivers() {
		bit[r] = i
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
			a.maskBelow[n] = 1 << uint(bit[n])
		}
		for _, c := range tree.Children(n) {
			a.maskBelow[n] |= a.maskBelow[c]
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

// Attribute returns the attribution for pattern x (a non-zero bitmask of
// receiver indices that lost the packet). Results are memoized.
func (a *Attribution) Attribute(x uint64) (*PatternResult, error) {
	if x == 0 {
		return nil, fmt.Errorf("lossinfer: empty loss pattern")
	}
	if x&^a.maskBelow[a.tree.Root()] != 0 {
		return nil, fmt.Errorf("lossinfer: pattern %b references unknown receivers", x)
	}
	if r, ok := a.memo[x]; ok {
		return r, nil
	}
	sol := a.solve(a.tree.Root(), x)
	if math.IsInf(sol.logSum, -1) {
		return nil, fmt.Errorf("lossinfer: pattern %b has no producing combination", x)
	}
	best := append([]topology.LinkID(nil), sol.best...)
	sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
	r := &PatternResult{
		Pattern:   x,
		Best:      best,
		BestProb:  math.Exp(sol.logMax - sol.logSum),
		NumCombos: sol.count,
	}
	a.memo[x] = r
	return r, nil
}

// solve computes the DP state for node n explaining x∩maskBelow(n),
// assuming the packet reaches n.
//
// This dynamic program computes, exactly, the same quantities the paper
// derives from explicitly enumerating C_x: the per-child options
// multiply independently, a fully-lost child subtree admits either
// "drop on the child link" (probability p, links below marginalized
// out of U) or "child link clean and the subtree explains the rest",
// and a loss-free child subtree forces every link in it clean.
func (a *Attribution) solve(n topology.NodeID, x uint64) nodeSolution {
	sub := x & a.maskBelow[n]
	if sub == 0 {
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
		childSub := x & a.maskBelow[c]
		inner := a.solve(c, childSub)
		// Option 1: child link clean, subtree explains childSub.
		optSum := a.logQ[c] + inner.logSum
		optMax := a.logQ[c] + inner.logMax
		optBest := inner.best
		optCount := inner.count
		// Option 2: child link drops — only when everything below c lost.
		if childSub == a.maskBelow[c] && childSub != 0 {
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
// rates (typically EstimateYajnik(t)). Traces up to 64 receivers take
// the uint64 bitmask fast path; wider ones the equivalent count-based
// DP (widepattern.go).
func Infer(t *trace.Trace, rates LinkRates) (*Result, error) {
	if t.Tree.NumReceivers() > 64 {
		return inferWide(t, rates)
	}
	attr, err := NewAttribution(t.Tree, rates)
	if err != nil {
		return nil, err
	}
	n := t.NumPackets()
	res := &Result{
		Rates: rates,
		Drops: make([][]topology.LinkID, n),
	}
	for i := t.NextLossy(0); i < n; i = t.NextLossy(i + 1) {
		pr, err := attr.Attribute(t.LossPattern(i))
		if err != nil {
			return nil, fmt.Errorf("lossinfer: packet %d: %w", i, err)
		}
		res.Drops[i] = pr.Best
		res.SelectedProbs = append(res.SelectedProbs, pr.BestProb)
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
