package trace

import (
	"sort"

	"cesrm/internal/topology"
)

// LocalityStats quantifies the packet-loss locality that motivates
// CESRM (§1): losses in IP multicast transmissions are not independent —
// they cluster in time (bursts on the same link) and in space (the same
// links stay bad), so the requestor/replier pair that recovered the last
// loss is very likely right for the next one.
type LocalityStats struct {
	// UncondLossProb is the unconditional per-receiver loss probability.
	UncondLossProb float64
	// CondLossProb is P(receiver loses packet i+1 | it lost packet i);
	// under independence it would equal UncondLossProb.
	CondLossProb float64
	// MeanBurstLen is the average consecutive-loss run length.
	MeanBurstLen float64
	// BurstLens is the distribution of loss-run lengths (capped bucket
	// at MaxBurstBucket).
	BurstLens map[int]int
	// SameLinkConsecutive is the fraction of consecutive loss events at
	// a receiver attributed to the same tree link (ground truth; -1 when
	// the trace carries none). This is the quantity bounding the hit
	// rate of CESRM's most-recent-loss cache.
	SameLinkConsecutive float64
	// PatternRepeat is the probability that the loss pattern of the next
	// lossy packet equals the current lossy packet's pattern.
	PatternRepeat float64
}

// MaxBurstBucket is the top (aggregated) bucket of BurstLens.
const MaxBurstBucket = 32

// LocalityRatio is the headline locality factor: how much more likely a
// loss is after a loss than unconditionally. Values near 1 mean
// independent losses; the MBone traces exhibit large ratios.
func (s LocalityStats) LocalityRatio() float64 {
	if s.UncondLossProb == 0 {
		return 0
	}
	return s.CondLossProb / s.UncondLossProb
}

// AnalyzeLocality computes locality statistics for the trace.
func AnalyzeLocality(t *Trace) LocalityStats {
	s := LocalityStats{BurstLens: make(map[int]int)}
	n := t.NumPackets()

	// A run of L losses is one burst and L loss events; L-1 of them
	// follow a loss, and all L have a successor unless the run ends the
	// trace.
	var lossEvents, afterLoss, lossAfterLoss, bursts int
	packets := n * len(t.Loss)
	for _, row := range t.Loss {
		lostRuns(row, n, func(start, end int) {
			run := end - start
			s.addBurst(run)
			bursts++
			lossEvents += run
			lossAfterLoss += run - 1
			afterLoss += run
			if end == n {
				afterLoss--
			}
		})
	}
	if packets > 0 {
		s.UncondLossProb = float64(lossEvents) / float64(packets)
	}
	if afterLoss > 0 {
		s.CondLossProb = float64(lossAfterLoss) / float64(afterLoss)
	}
	if bursts > 0 {
		s.MeanBurstLen = float64(lossEvents) / float64(bursts)
	}

	// Pattern repetition across consecutive lossy packets, comparing
	// their loss columns directly.
	prev := -1
	var lossyPairs, samePattern int
	for i := t.NextLossy(0); i < n; i = t.NextLossy(i + 1) {
		if prev >= 0 {
			lossyPairs++
			if sameLossColumn(t, prev, i) {
				samePattern++
			}
		}
		prev = i
	}
	if lossyPairs > 0 {
		s.PatternRepeat = float64(samePattern) / float64(lossyPairs)
	}

	// Link locality from ground truth (synthetic traces only).
	s.SameLinkConsecutive = -1
	if t.TrueDrops != nil {
		var pairs, same int
		for ri, r := range t.Tree.Receivers() {
			path := t.Tree.PathLinks(t.Tree.Root(), r)
			prevLink := topology.None
			for i := 0; i < n; i++ {
				if !t.Lost(ri, i) {
					continue
				}
				link := responsibleLink(path, t.TrueDropsAt(i))
				if link == topology.None {
					continue
				}
				if prevLink != topology.None {
					pairs++
					if link == prevLink {
						same++
					}
				}
				prevLink = link
			}
		}
		if pairs > 0 {
			s.SameLinkConsecutive = float64(same) / float64(pairs)
		}
	}
	return s
}

func (s *LocalityStats) addBurst(run int) {
	if run > MaxBurstBucket {
		run = MaxBurstBucket
	}
	s.BurstLens[run]++
}

// sameLossColumn reports whether packets i and j were lost by exactly
// the same receiver set.
func sameLossColumn(t *Trace, i, j int) bool {
	for r := range t.Loss {
		if t.Lost(r, i) != t.Lost(r, j) {
			return false
		}
	}
	return true
}

// responsibleLink finds the drop link on the receiver's path, or None.
func responsibleLink(path []topology.LinkID, drops []topology.LinkID) topology.LinkID {
	for _, l := range path {
		for _, d := range drops {
			if l == d {
				return l
			}
		}
	}
	return topology.None
}

// BurstPercentile returns the loss-run length at or below which the
// given fraction of bursts fall; q in [0, 1].
func (s LocalityStats) BurstPercentile(q float64) int {
	total := 0
	lens := make([]int, 0, len(s.BurstLens))
	for l, c := range s.BurstLens {
		total += c
		lens = append(lens, l)
	}
	if total == 0 {
		return 0
	}
	sort.Ints(lens)
	threshold := q * float64(total)
	cum := 0
	for _, l := range lens {
		cum += s.BurstLens[l]
		if float64(cum) >= threshold {
			return l
		}
	}
	return lens[len(lens)-1]
}
