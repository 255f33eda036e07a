package trace

import (
	"fmt"
	"math"
	"slices"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// GenSpec parameterizes synthetic trace generation.
//
// Losses are produced by independent per-link Gilbert (two-state Markov)
// processes: each link alternates between a good state (no loss) and a
// bad state (loss), giving bursty, temporally correlated loss — the
// packet-loss locality that Yajnik et al. measured on the MBone and that
// CESRM exploits. Spatial locality follows from the tree: one bad link
// produces correlated losses at every receiver below it.
type GenSpec struct {
	// Name labels the resulting trace.
	Name string
	// Topology shapes the random dissemination tree.
	Topology topology.GenSpec
	// NumPackets is the number of packets the source transmits.
	NumPackets int
	// Period is the constant transmission interval.
	Period time.Duration
	// TargetLosses is the desired aggregate loss count across all
	// receivers; per-link loss rates are calibrated so the expected
	// total matches it. The realized count fluctuates around the target.
	TargetLosses int
	// MeanBurstLen is the mean number of consecutive packets a link
	// drops once it enters the bad state. Zero selects the default of 8.
	//
	// 1 is not Bernoulli loss. The chain leaves the bad state with
	// probability 1/MeanBurstLen, so at 1 a dropped packet is always
	// followed by a delivered one and a link never drops two packets in
	// a row. The chain enters the bad state with probability
	// rate/((1−rate)·MeanBurstLen), which is clamped at 1, so no link
	// realises a loss rate above MeanBurstLen/(MeanBurstLen+1): one half
	// at 1, 8/9 at the default. The calibration assumes per-link rates
	// up to 0.95.
	MeanBurstLen float64
	// LossyLinkFraction is the probability a link is drawn from the
	// high-loss weight band (zero selects the default of 0.35); the MBone
	// traces concentrate loss on a few consistently bad links.
	LossyLinkFraction float64
	// Seed drives all randomness.
	Seed int64
}

// gilbertChain is one link's two-state Markov loss process.
type gilbertChain struct {
	pGB float64 // P(good -> bad)
	pBG float64 // P(bad -> good)
	bad bool
}

func (g *gilbertChain) step(rng *sim.RNG) bool {
	if g.bad {
		if rng.Float64() < g.pBG {
			g.bad = false
		}
	} else {
		if rng.Float64() < g.pGB {
			g.bad = true
		}
	}
	return g.bad
}

// Generate builds a synthetic trace from spec. Generation is fully
// deterministic in spec.Seed. Receiver counts are unbounded, up to the
// "tens of thousands of receivers" workloads.
func Generate(spec GenSpec) (*Trace, error) {
	if spec.NumPackets <= 0 || spec.NumPackets > math.MaxInt32 {
		return nil, fmt.Errorf("trace: NumPackets = %d", spec.NumPackets)
	}
	if spec.Period <= 0 {
		return nil, fmt.Errorf("trace: Period = %v", spec.Period)
	}
	if spec.TargetLosses < 0 || spec.TargetLosses > spec.NumPackets*spec.Topology.Receivers {
		return nil, fmt.Errorf("trace: TargetLosses = %d out of range", spec.TargetLosses)
	}
	meanBurst := spec.MeanBurstLen
	if meanBurst == 0 {
		meanBurst = 8
	}
	if meanBurst < 1 {
		return nil, fmt.Errorf("trace: MeanBurstLen = %v (< 1)", meanBurst)
	}
	lossyFrac := spec.LossyLinkFraction
	if lossyFrac == 0 {
		lossyFrac = 0.35
	}

	rng := sim.NewRNG(spec.Seed)
	treeRNG := rng.Split()
	weightRNG := rng.Split()
	chainRNG := rng.Split()

	tree, err := topology.Generate(treeRNG, spec.Topology)
	if err != nil {
		return nil, fmt.Errorf("trace: generating topology: %w", err)
	}

	// Per-link relative loss weights: a minority of links carry most of
	// the loss, the rest are nearly clean. Indexed by the link's NodeID
	// (dense slices, not maps; the draw order over links is unchanged,
	// keeping every existing catalog trace byte-identical).
	links := tree.Links()
	weight := make([]float64, tree.NumNodes())
	for _, l := range links {
		if weightRNG.Float64() < lossyFrac {
			weight[l] = 0.5 + 0.5*weightRNG.Float64() // hot link
		} else {
			weight[l] = 0.01 + 0.09*weightRNG.Float64() // quiet link
		}
	}

	// The flood order lays every subtree out as one contiguous span of
	// entries, so the receivers below a link are one contiguous run of
	// rows: rows lists the Loss row indices in flood order, and
	// rowsBefore[i] counts the receivers among the first i entries.
	// Receivers are in ascending ID order, which is the Loss row order.
	order := tree.FloodOrder()
	entries := order.Entries[:tree.NumNodes()]
	receivers := tree.Receivers()
	rows := make([]int32, 0, len(receivers))
	rowsBefore := make([]int32, len(entries)+1)
	for i, e := range entries {
		rowsBefore[i] = int32(len(rows))
		if ri, ok := slices.BinarySearch(receivers, topology.NodeID(e.Node)); ok {
			rows = append(rows, int32(ri))
		}
	}
	rowsBefore[len(entries)] = int32(len(rows))
	rowsBelow := func(l topology.LinkID) []int32 {
		p := order.Pos[l]
		return rows[rowsBefore[p]:rowsBefore[p+entries[p].Span]]
	}

	// Calibrate the global scale alpha so the expected aggregate loss
	// count matches the target:
	//   E[losses] = sum_r N * (1 - prod_{l in path(s,r)} (1 - alpha*w_l))
	// which is monotone increasing in alpha. Solve by bisection. Each
	// evaluation is one pass over the flood order, parents before
	// children, so every receiver's product is taken root first, link by
	// link, exactly as a walk down its path would.
	maxW := 0.0
	for _, w := range weight {
		if w > maxW {
			maxW = w
		}
	}
	keep := make([]float64, tree.NumNodes())
	keep[tree.Root()] = 1
	expected := func(alpha float64) float64 {
		for _, e := range entries[1:] {
			keep[e.Node] = keep[tree.Parent(topology.NodeID(e.Node))] * (1 - alpha*weight[e.Node])
		}
		total := 0.0
		for _, r := range receivers {
			total += 1 - keep[r]
		}
		return total * float64(spec.NumPackets)
	}
	target := float64(spec.TargetLosses)
	lo, hi := 0.0, 0.95/maxW
	if expected(hi) < target {
		return nil, fmt.Errorf("trace: target %d losses unreachable (max expected %.0f)", spec.TargetLosses, expected(hi))
	}
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		if expected(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	alpha := (lo + hi) / 2

	// realize runs the per-link Gilbert chains at scale alpha and
	// overwrites into with the loss bitsets and ground-truth rows,
	// returning the realized loss count. The chain RNG seed is fixed per
	// attempt index so the calibration loop below converges smoothly
	// rather than chasing fresh noise each pass. A packet dies on its
	// minimal bad links, those whose upstream path is clean; their
	// subtrees are disjoint and together hold every receiver that lost
	// it, so each loss is marked and counted once.
	chains := make([]gilbertChain, tree.NumNodes())
	var bad, drops []topology.LinkID
	realize := func(alpha float64, seed int64, into *Trace) int {
		crng := sim.NewRNG(seed)
		for _, l := range links {
			rate := alpha * weight[l]
			if rate > 0.97 {
				rate = 0.97
			}
			pBG := 1 / meanBurst
			pGB := rate * pBG / (1 - rate)
			chains[l] = gilbertChain{pGB: pGB, pBG: pBG, bad: crng.Float64() < rate}
		}
		for _, row := range into.Loss {
			clear(row)
		}
		d := into.TrueDrops
		d.Seqs, d.Offs, d.Links = d.Seqs[:0], d.Offs[:0], d.Links[:0]
		total := 0
		for pkt := 0; pkt < spec.NumPackets; pkt++ {
			bad = bad[:0]
			for _, l := range links {
				if chains[l].step(crng) {
					bad = append(bad, l)
				}
			}
			if len(bad) == 0 {
				continue
			}
			drops = drops[:0]
			word, bit := pkt>>6, uint64(1)<<(pkt&63)
			for _, l := range bad {
				// chains[p].bad is p's state for this packet.
				clean := true
				for p := tree.Parent(l); p != tree.Root() && p != topology.None; p = tree.Parent(p) {
					if chains[p].bad {
						clean = false
						break
					}
				}
				if !clean {
					continue
				}
				drops = append(drops, l)
				below := rowsBelow(l)
				for _, ri := range below {
					into.Loss[ri][word] |= bit
				}
				total += len(below)
			}
			d.add(pkt, drops)
		}
		return total
	}

	// Burst processes realize with high variance, so refine alpha
	// against the realized count. The realized count is a noisy,
	// non-smooth function of alpha (bursts quantize coarsely), so a pure
	// multiplicative update can oscillate; keep the best realization
	// seen, in one of two buffers the attempts alternate between.
	// Deterministic: the chain seed is fixed and the iteration count
	// bounded.
	chainSeed := chainRNG.Int63()
	maxAlpha := 0.95 / maxW
	relErr := func(r int) float64 {
		return math.Abs(float64(r)-target) / math.Max(target, 1)
	}
	newBuffer := func() *Trace {
		t := &Trace{Name: spec.Name, Tree: tree, Period: spec.Period, Packets: spec.NumPackets,
			Loss: make([][]uint64, len(receivers)), TrueDrops: &DropTable{}}
		for i := range t.Loss {
			t.Loss[i] = make([]uint64, (spec.NumPackets+63)/64)
		}
		return t
	}
	best, spare := newBuffer(), newBuffer()
	realized := realize(alpha, chainSeed, best)
	bestErr := relErr(realized)
	for iter := 0; iter < 12 && realized > 0 && bestErr > 0.05; iter++ {
		adj := target / float64(realized)
		// Damp the update: burst quantization makes full multiplicative
		// steps overshoot.
		alpha *= 1 + 0.7*(adj-1)
		if alpha > maxAlpha {
			alpha = maxAlpha
		}
		realized = realize(alpha, chainSeed, spare)
		if e := relErr(realized); e < bestErr {
			best, spare, bestErr = spare, best, e
		}
	}
	// The rows grew by appending; keep exactly what they hold.
	d := best.TrueDrops
	d.Seqs, d.Offs, d.Links = slices.Clone(d.Seqs), slices.Clone(d.Offs), slices.Clone(d.Links)
	if err := best.Validate(); err != nil {
		return nil, err
	}
	return best, nil
}

// MustGenerate is Generate panicking on error, for the static catalog.
func MustGenerate(spec GenSpec) *Trace {
	t, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// CalibrationError returns the relative deviation of the realized loss
// count from the generation target, |realized-target|/target. It is a
// generator-quality metric used by tests and the trace tool.
func CalibrationError(t *Trace, target int) float64 {
	if target == 0 {
		return 0
	}
	return math.Abs(float64(t.TotalLosses())-float64(target)) / float64(target)
}
