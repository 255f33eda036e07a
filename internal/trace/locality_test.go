package trace

import (
	"math"
	"testing"
	"time"

	"cesrm/internal/topology"
)

func TestAnalyzeLocalityHandTrace(t *testing.T) {
	tr := tinyTrace(t) // r0: 0110, r1: 0010
	s := AnalyzeLocality(tr)
	// 3 losses over 8 receiver-packets.
	if math.Abs(s.UncondLossProb-3.0/8.0) > 1e-12 {
		t.Fatalf("UncondLossProb = %v", s.UncondLossProb)
	}
	// Loss-followed-by-packet pairs: r0 at 1 (next lost), r0 at 2 (next
	// ok), r1 at 2 (next ok) => 1/3.
	if math.Abs(s.CondLossProb-1.0/3.0) > 1e-12 {
		t.Fatalf("CondLossProb = %v", s.CondLossProb)
	}
	// Bursts: r0 one of length 2, r1 one of length 1 => mean 1.5.
	if s.MeanBurstLen != 1.5 {
		t.Fatalf("MeanBurstLen = %v", s.MeanBurstLen)
	}
	if s.BurstLens[1] != 1 || s.BurstLens[2] != 1 {
		t.Fatalf("BurstLens = %v", s.BurstLens)
	}
	// Lossy packets 1 (pattern 01) and 2 (pattern 11): no repeat.
	if s.PatternRepeat != 0 {
		t.Fatalf("PatternRepeat = %v", s.PatternRepeat)
	}
	// No ground truth on the hand trace.
	if s.SameLinkConsecutive != -1 {
		t.Fatalf("SameLinkConsecutive = %v, want -1", s.SameLinkConsecutive)
	}
}

func TestLocalityRatioHighOnGilbertTraces(t *testing.T) {
	tr := MustGenerate(GenSpec{
		Name:         "loc",
		Topology:     topology.GenSpec{Receivers: 10, Depth: 4},
		NumPackets:   30000,
		Period:       80 * time.Millisecond,
		TargetLosses: 9000,
		MeanBurstLen: 8,
		Seed:         41,
	})
	s := AnalyzeLocality(tr)
	if s.LocalityRatio() < 3 {
		t.Fatalf("LocalityRatio = %.2f, want >= 3 on bursty traces", s.LocalityRatio())
	}
	if s.SameLinkConsecutive < 0.5 {
		t.Fatalf("SameLinkConsecutive = %.2f, want >= 0.5", s.SameLinkConsecutive)
	}
	if s.PatternRepeat < 0.3 {
		t.Fatalf("PatternRepeat = %.2f, want >= 0.3", s.PatternRepeat)
	}
	if p := s.BurstPercentile(0.5); p < 1 {
		t.Fatalf("median burst = %d", p)
	}
	if s.BurstPercentile(1.0) < s.BurstPercentile(0.5) {
		t.Fatal("percentiles not monotone")
	}
}

func TestLocalityLowWithoutBursts(t *testing.T) {
	// MeanBurstLen 1.01 is not near-Bernoulli: a link leaves the bad
	// state after almost every drop, so it almost never drops two
	// packets in a row (GenSpec.MeanBurstLen). With bursts that short
	// both the mean burst length and the locality ratio must fall
	// below the bursty trace's.
	bursty := MustGenerate(GenSpec{
		Name:         "bursty",
		Topology:     topology.GenSpec{Receivers: 8, Depth: 3},
		NumPackets:   20000,
		Period:       80 * time.Millisecond,
		TargetLosses: 5000,
		MeanBurstLen: 16,
		Seed:         43,
	})
	thin := MustGenerate(GenSpec{
		Name:         "thin",
		Topology:     topology.GenSpec{Receivers: 8, Depth: 3},
		NumPackets:   20000,
		Period:       80 * time.Millisecond,
		TargetLosses: 5000,
		MeanBurstLen: 1.01,
		Seed:         43,
	})
	sb := AnalyzeLocality(bursty)
	st := AnalyzeLocality(thin)
	if sb.MeanBurstLen <= st.MeanBurstLen {
		t.Fatalf("burst lengths not ordered: %v vs %v", sb.MeanBurstLen, st.MeanBurstLen)
	}
	if sb.LocalityRatio() <= st.LocalityRatio() {
		t.Fatalf("locality ratios not ordered: %.2f vs %.2f", sb.LocalityRatio(), st.LocalityRatio())
	}
}

func TestBurstPercentileEmpty(t *testing.T) {
	s := LocalityStats{BurstLens: map[int]int{}}
	if s.BurstPercentile(0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestLocalityRatioZeroLoss(t *testing.T) {
	tr := tinyTrace(t)
	tr.Loss = [][]uint64{{0}, {0}}
	s := AnalyzeLocality(tr)
	if s.LocalityRatio() != 0 {
		t.Fatalf("ratio on lossless trace = %v", s.LocalityRatio())
	}
}
