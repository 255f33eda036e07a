package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cesrm/internal/topology"
)

// checkGroundTruth asserts what a generated trace's loss rows and drop
// table must agree on, from the tree's own ancestry queries alone: every
// packet's drop links are a non-empty set of links none of which lies
// below another, the receivers that lost the packet are exactly the
// receivers below those links, and TotalLosses is the sum of those
// counts over all packets.
func checkGroundTruth(t *testing.T, tr *Trace) {
	t.Helper()
	tree := tr.Tree
	recv := tree.Receivers()
	total := 0
	var lost []int
	for i := 0; i < tr.NumPackets(); i++ {
		drops := tr.TrueDropsAt(i)
		want := map[topology.NodeID]bool{}
		for k, d := range drops {
			if d == tree.Root() || d < 0 || int(d) >= tree.NumNodes() {
				t.Fatalf("packet %d: drop %d is not a link", i, d)
			}
			for _, e := range drops[:k] {
				if tree.IsAncestor(e, d) || tree.IsAncestor(d, e) {
					t.Fatalf("packet %d: drop links %d and %d are nested", i, e, d)
				}
			}
			for _, r := range tree.ReceiversBelow(d) {
				want[r] = true
			}
		}
		lost = tr.LostReceivers(i, lost[:0])
		if len(lost) != len(want) {
			t.Fatalf("packet %d: %d receivers lost it, the drop links %v cover %d", i, len(lost), drops, len(want))
		}
		for _, ri := range lost {
			if !want[recv[ri]] {
				t.Fatalf("packet %d: receiver %d lost it below no drop link of %v", i, recv[ri], drops)
			}
		}
		total += len(want)
	}
	if got := tr.TotalLosses(); got != total {
		t.Fatalf("TotalLosses = %d, the drop links cover %d", got, total)
	}
}

// TestGeneratedLossesMatchGroundTruth runs the ground-truth check over a
// grid of shallow and deep trees, one-packet to long bursts, and hot
// links from a rare few to every link.
func TestGeneratedLossesMatchGroundTruth(t *testing.T) {
	seed := int64(1)
	for _, shape := range []topology.GenSpec{{Receivers: 12, Depth: 3}, {Receivers: 40, Depth: 10}} {
		for _, burst := range []float64{1, 8, 16} {
			for _, lossy := range []float64{0.02, 0.35, 1} {
				seed++
				spec := GenSpec{
					Name:              fmt.Sprintf("d%d-b%g-l%g", shape.Depth, burst, lossy),
					Topology:          shape,
					NumPackets:        500,
					Period:            40 * time.Millisecond,
					TargetLosses:      shape.Receivers * 500 / 10,
					MeanBurstLen:      burst,
					LossyLinkFraction: lossy,
					Seed:              seed,
				}
				t.Run(spec.Name, func(t *testing.T) {
					tr, err := Generate(spec)
					if err != nil {
						t.Fatal(err)
					}
					if tr.TotalLosses() == 0 {
						t.Fatal("no losses generated")
					}
					checkGroundTruth(t, tr)
				})
			}
		}
	}
}

// FuzzGenerate: any small spec either generates a trace whose loss rows
// and drop table pass the ground-truth check, or is refused as an
// unreachable loss target.
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(12), uint8(3), uint16(200), uint8(8), uint8(35), uint8(10), int64(1))
	f.Add(uint8(40), uint8(8), uint16(300), uint8(1), uint8(100), uint8(20), int64(2))
	f.Add(uint8(1), uint8(2), uint16(1), uint8(16), uint8(0), uint8(0), int64(3))
	f.Fuzz(func(t *testing.T, receivers, depth uint8, packets uint16, burst, lossyPct, lossPct uint8, seed int64) {
		spec := GenSpec{
			Name:              "fuzz",
			Topology:          topology.GenSpec{Receivers: 1 + int(receivers)%64, Depth: 2 + int(depth)%7},
			NumPackets:        1 + int(packets)%300,
			Period:            40 * time.Millisecond,
			MeanBurstLen:      1 + float64(burst%16),
			LossyLinkFraction: float64(lossyPct%101) / 100,
			Seed:              seed,
		}
		spec.TargetLosses = spec.Topology.Receivers * spec.NumPackets * int(lossPct%30) / 100
		tr, err := Generate(spec)
		if err != nil {
			if !strings.Contains(err.Error(), "unreachable") {
				t.Fatal(err)
			}
			return
		}
		checkGroundTruth(t, tr)
	})
}
