package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"cesrm/internal/topology"
)

// denseRLE is the run-length encoder over a []bool row that the bitset
// encoder replaced; the property test below holds rleEncode to it.
func denseRLE(row []bool) []int {
	var runs []int
	cur, run := false, 0
	for _, v := range row {
		if v == cur {
			run++
			continue
		}
		runs = append(runs, run)
		cur, run = v, 1
	}
	return append(runs, run)
}

// denseLocality computes AnalyzeLocality's per-receiver statistics cell
// by cell from dense rows.
func denseLocality(loss [][]bool) LocalityStats {
	s := LocalityStats{BurstLens: map[int]int{}}
	var cells, lost, afterLoss, lossAfterLoss, bursts int
	for _, row := range loss {
		run := 0
		for i, l := range row {
			cells++
			if l {
				lost++
				run++
				if i+1 < len(row) {
					afterLoss++
					if row[i+1] {
						lossAfterLoss++
					}
				}
			}
			if run > 0 && (!l || i+1 == len(row)) {
				s.addBurst(run)
				bursts++
				run = 0
			}
		}
	}
	s.UncondLossProb = float64(lost) / float64(cells)
	if afterLoss > 0 {
		s.CondLossProb = float64(lossAfterLoss) / float64(afterLoss)
	}
	if bursts > 0 {
		s.MeanBurstLen = float64(lost) / float64(bursts)
	}
	return s
}

// checkAgainstDense holds every reader of tr's sparse tables to the
// dense rows it was built from. drops may be nil (no ground truth).
func checkAgainstDense(t *testing.T, tr *Trace, loss [][]bool, drops [][]topology.LinkID) {
	t.Helper()
	receivers, packets := len(loss), len(loss[0])
	if tr.NumReceivers() != receivers || tr.NumPackets() != packets {
		t.Fatalf("shape %dx%d, want %dx%d", tr.NumReceivers(), tr.NumPackets(), receivers, packets)
	}
	total, lostCells, bursts := 0, 0, 0
	for r, row := range loss {
		n := 0
		for i, lost := range row {
			if tr.Lost(r, i) != lost {
				t.Fatalf("Lost(%d, %d) = %v", r, i, !lost)
			}
			if lost {
				n++
				if i == 0 || !row[i-1] {
					bursts++
				}
			}
		}
		if got := tr.ReceiverLosses(r); got != n {
			t.Fatalf("ReceiverLosses(%d) = %d, want %d", r, got, n)
		}
		if got, want := rleEncode(tr.Loss[r], packets), denseRLE(row); !slices.Equal(got, want) {
			t.Fatalf("rleEncode(row %d) = %v, want %v", r, got, want)
		}
		total += n
		lostCells += n
	}
	if got := tr.TotalLosses(); got != total {
		t.Fatalf("TotalLosses = %d, want %d", got, total)
	}
	wantBurst := 0.0
	if bursts > 0 {
		wantBurst = float64(lostCells) / float64(bursts)
	}
	if got := tr.MeanBurstLength(); got != wantBurst {
		t.Fatalf("MeanBurstLength = %v, want %v", got, wantBurst)
	}
	nextLossy := packets // the first lossy packet at or after i, walking down
	var buf []int
	for i := packets - 1; i >= 0; i-- {
		var want []int
		for r := range loss {
			if loss[r][i] {
				want = append(want, r)
			}
		}
		if len(want) > 0 {
			nextLossy = i
		}
		if got := tr.NextLossy(i); got != nextLossy {
			t.Fatalf("NextLossy(%d) = %d, want %d", i, got, nextLossy)
		}
		if buf = tr.LostReceivers(i, buf[:0]); !slices.Equal(buf, want) {
			t.Fatalf("LostReceivers(%d) = %v, want %v", i, buf, want)
		}
		if drops != nil {
			if got := tr.TrueDropsAt(i); !slices.Equal(got, drops[i]) {
				t.Fatalf("TrueDropsAt(%d) = %v, want %v", i, got, drops[i])
			}
		}
	}
	if got := tr.NextLossy(packets); got != packets {
		t.Fatalf("NextLossy(%d) = %d past the end", packets, got)
	}
	got, want := AnalyzeLocality(tr), denseLocality(loss)
	if got.UncondLossProb != want.UncondLossProb || got.CondLossProb != want.CondLossProb ||
		got.MeanBurstLen != want.MeanBurstLen || fmt.Sprint(got.BurstLens) != fmt.Sprint(want.BurstLens) {
		t.Fatalf("AnalyzeLocality = %+v, want %+v", got, want)
	}
}

// TestSparseTablesMatchDenseReference is the property behind "same
// traces, less memory": across receiver widths on both sides of the
// 64-bit pattern limit, packet counts on both sides of a word boundary
// and densities from lossless to all-lost (where a careless run fill or
// popcount would count the last word's padding), every reader answers
// as the dense tables would — built directly and decoded from text.
func TestSparseTablesMatchDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, receivers := range []int{1, 63, 64, 65, 512} {
		parents := make([]topology.NodeID, receivers+1)
		parents[0] = topology.None // a star: every receiver hangs off the source
		tree := topology.MustNew(parents)
		for _, packets := range []int{1, 63, 64, 65, 127, 128, 200} {
			for _, density := range []float64{0, 0.03, 0.5, 1} {
				loss := make([][]bool, receivers)
				for r := range loss {
					loss[r] = make([]bool, packets)
				}
				drops := make([][]topology.LinkID, packets)
				for i := 0; i < packets; i++ {
					for r := range loss {
						if rng.Float64() < density {
							loss[r][i] = true
							if len(drops[i]) < 3 {
								drops[i] = append(drops[i], topology.LinkID(r+1))
							}
						}
					}
				}
				name := fmt.Sprintf("r%d-p%d-d%g", receivers, packets, density)
				tr, err := FromRows(name, tree, 40*time.Millisecond, loss, drops)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkAgainstDense(t, tr, loss, drops)
				var text bytes.Buffer
				if err := Marshal(&text, tr); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				back, err := Unmarshal(&text)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkAgainstDense(t, back, loss, nil)
			}
		}
	}
}

// TestTraceRetainedBytes pins what a loaded trace costs to keep: the
// scale-0.1 catalog stays live at under 10 bytes a packet (the dense
// tables held about 37: a bool per receiver-packet and a 24-byte slice
// header per packet, lost or not).
func TestTraceRetainedBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	traces, err := LoadCatalog(0.1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	packets := 0
	for _, tr := range traces {
		packets += tr.NumPackets()
	}
	runtime.KeepAlive(traces)
	perPacket := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(packets)
	t.Logf("%d packets, %.1f live bytes each", packets, perPacket)
	if perPacket > 10 {
		t.Errorf("the catalog retains %.1f bytes a packet, want <= 10", perPacket)
	}
}
