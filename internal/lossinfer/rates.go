// Package lossinfer estimates which multicast tree links were
// responsible for the losses observed in a transmission trace,
// implementing §4.2 of the paper.
//
// The pipeline has two stages. First, per-link loss rates are estimated
// from the per-receiver loss sequences — either with the subtree
// estimator of Yajnik et al. (1996) or the maximum-likelihood MINC
// estimator of Cáceres et al. (1999); the paper found both to yield very
// similar estimates. Second, for every observed loss pattern the set of
// link combinations that could have produced it is enumerated, each
// combination's probability of occurrence is computed from the link
// rates, and the most probable combination is selected to represent each
// instance of the pattern, yielding the link trace representation
// link(r)(i) that drives loss injection in the simulations.
package lossinfer

import (
	"fmt"
	"math"

	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// LinkRates maps each tree link to its estimated loss probability:
// the probability that a packet arriving at the link's upstream node is
// dropped on the link.
type LinkRates map[topology.LinkID]float64

// rateFloor and rateCeil clamp estimates away from 0 and 1 so that
// log-probability arithmetic stays finite and no observed pattern gets
// probability exactly zero.
const (
	rateFloor = 1e-9
	rateCeil  = 1 - 1e-9
)

func clampRate(p float64) float64 {
	if p < rateFloor {
		return rateFloor
	}
	if p > rateCeil {
		return rateCeil
	}
	return p
}

// reachCounts computes, for every node n, the number of packets for
// which at least one receiver below n received the packet ("the packet
// was seen below n"). For receivers this is simply their reception
// count.
func reachCounts(t *trace.Trace) []int {
	tree := t.Tree
	seen := make([]int, tree.NumNodes())
	n := t.NumPackets()
	// Walk up from each receiving receiver, marking ancestors. The
	// visited set is an epoch-stamped slice rather than a per-packet map
	// so wide traces (10k+ receivers) stay cheap.
	marked := make([]int, tree.NumNodes())
	for i := range marked {
		marked[i] = -1
	}
	lossless := n
	for i := t.NextLossy(0); i < n; i = t.NextLossy(i + 1) {
		lossless--
		for ri, r := range tree.Receivers() {
			if t.Lost(ri, i) {
				continue
			}
			for n := r; n != topology.None && marked[n] != i; n = tree.Parent(n) {
				marked[n] = i
				seen[n]++
			}
		}
	}
	// A packet nobody lost was seen below every node: each has a leaf
	// below it, and the leaves are the receivers.
	for n := range seen {
		seen[n] += lossless
	}
	return seen
}

// EstimateYajnik implements the subtree loss-rate estimator of Yajnik
// et al.: the loss rate of the link into node n is the fraction of
// packets that were seen below n's parent but not below n. Packets seen
// below neither are unattributable to this link and excluded.
func EstimateYajnik(t *trace.Trace) LinkRates {
	tree := t.Tree
	seen := reachCounts(t)
	total := t.NumPackets()

	// seenBelowBoth[n] counts packets seen below both n and its parent,
	// which is just seen[n] (seen below n implies seen below parent).
	rates := make(LinkRates, tree.NumLinks())
	for _, l := range tree.Links() {
		parent := tree.Parent(l)
		var reachedParent int
		if parent == tree.Root() {
			// Every transmitted packet reaches the source.
			reachedParent = total
		} else {
			reachedParent = seen[parent]
		}
		if reachedParent == 0 {
			rates[l] = rateFloor
			continue
		}
		lost := reachedParent - seen[l]
		rates[l] = clampRate(float64(lost) / float64(reachedParent))
	}
	return rates
}

// EstimateMLE implements the MINC maximum-likelihood estimator of
// Cáceres, Duffield, Horowitz and Towsley (IEEE Trans. IT 1999),
// generalized to arbitrary branching. For each node k let gamma_k be the
// empirical probability that a packet is seen below k. The pass
// probability A_k (probability a packet reaches k) solves
//
//	gamma_k = A_k * (1 - prod_j (1 - gamma_j / A_k))
//
// over k's children j, found by bisection (the equation has a unique
// root in (max_j gamma_j, 1]). Link loss rates follow as
// 1 - A_k/A_parent(k). Chain nodes with a single child are
// unidentifiable; as in MINC practice the chain's combined loss is
// attributed to its topmost link.
func EstimateMLE(t *trace.Trace) LinkRates {
	tree := t.Tree
	seen := reachCounts(t)
	total := float64(t.NumPackets())

	gamma := make([]float64, tree.NumNodes())
	for n := range gamma {
		gamma[n] = float64(seen[n]) / total
	}

	// Pass probabilities, root-down. A[root] = 1.
	pass := make([]float64, tree.NumNodes())
	pass[tree.Root()] = 1
	// A packet always "reaches" the source, so the root is pinned at 1
	// and every other internal node's pass probability is solved from
	// its children's evidence. Single-child chains are unidentifiable;
	// solvePass degenerates to A = gamma there, attributing the chain's
	// combined loss to its topmost link.
	for _, k := range tree.NodesBelow(tree.Root()) {
		if tree.IsLeaf(k) || k == tree.Root() {
			continue
		}
		pass[k] = solvePass(gamma[k], childGammas(gamma, tree.Children(k)))
	}
	// Leaves: a packet is seen below a leaf iff it arrives, so the pass
	// probability is gamma itself.
	for _, r := range tree.Receivers() {
		pass[r] = gamma[r]
	}

	rates := make(LinkRates, tree.NumLinks())
	for _, l := range tree.Links() {
		parent := tree.Parent(l)
		pp := pass[parent]
		if parent == tree.Root() {
			pp = 1
		}
		if pp <= 0 {
			rates[l] = rateFloor
			continue
		}
		rates[l] = clampRate(1 - pass[l]/pp)
	}
	return rates
}

func childGammas(gamma []float64, children []topology.NodeID) []float64 {
	out := make([]float64, len(children))
	for i, c := range children {
		out[i] = gamma[c]
	}
	return out
}

// solvePass finds A in (max gamma_j, 1] with
// gamma = A*(1 - prod_j (1 - gamma_j/A)). With a single child the
// equation degenerates to A = gamma (all subtree evidence flows through
// one link, so the chain is unidentifiable and the loss is attributed
// above the child).
func solvePass(gammaK float64, childG []float64) float64 {
	if gammaK <= 0 {
		return rateFloor
	}
	if len(childG) == 1 {
		return gammaK
	}
	f := func(a float64) float64 {
		prod := 1.0
		for _, g := range childG {
			prod *= 1 - g/a
		}
		return a*(1-prod) - gammaK
	}
	lo := 0.0
	for _, g := range childG {
		if g > lo {
			lo = g
		}
	}
	if lo <= 0 {
		return rateFloor
	}
	hi := 1.0
	// f(lo+) >= 0 (at A=max gamma the product term vanishes for that
	// child, making the expression >= gammaK when losses correlate), and
	// f decreases toward A=1 where independence is assumed. If f(1) >= 0
	// the MLE sits at the boundary A=1.
	if f(1) >= 0 {
		return 1
	}
	lo = math.Nextafter(lo, 2)
	if f(lo) <= 0 {
		// Degenerate evidence; fall back to the union bound.
		return math.Min(1, gammaK)
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Compare summarizes the agreement between two rate estimates: the mean
// and maximum absolute difference across links. The paper reports that
// the Yajnik and MLE estimators yield very similar values on its traces.
func Compare(a, b LinkRates) (mean, max float64, err error) {
	if len(a) != len(b) {
		return 0, 0, fmt.Errorf("lossinfer: comparing %d rates with %d", len(a), len(b))
	}
	n := 0
	for l, pa := range a {
		pb, ok := b[l]
		if !ok {
			return 0, 0, fmt.Errorf("lossinfer: link %d missing from second estimate", l)
		}
		d := math.Abs(pa - pb)
		mean += d
		if d > max {
			max = d
		}
		n++
	}
	if n > 0 {
		mean /= float64(n)
	}
	return mean, max, nil
}
