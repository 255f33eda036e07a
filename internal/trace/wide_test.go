package trace

import (
	"bytes"
	"testing"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// wideTrace generates a shared >64-receiver trace for the tests below.
func wideTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := Generate(GenSpec{
		Name:         "wide200",
		Topology:     topology.GenSpec{Receivers: 200, Depth: 6},
		NumPackets:   600,
		Period:       40 * time.Millisecond,
		TargetLosses: 3000,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGenerateWideTrace checks generation of a 200-receiver trace:
// shape, determinism, and that LostReceivers matches the raw loss rows.
func TestGenerateWideTrace(t *testing.T) {
	tr := wideTrace(t)
	if tr.NumReceivers() != 200 {
		t.Fatalf("receivers = %d, want 200", tr.NumReceivers())
	}
	if got := tr.Tree.MaxDepth(); got != 6 {
		t.Fatalf("depth = %d, want 6", got)
	}
	again := wideTrace(t)
	for r := range tr.Loss {
		for i := range tr.Loss[r] {
			if tr.Loss[r][i] != again.Loss[r][i] {
				t.Fatalf("receiver %d packet %d differs across identical generations", r, i)
			}
		}
	}
	var buf []int
	for i := 0; i < tr.NumPackets(); i++ {
		buf = tr.LostReceivers(i, buf[:0])
		j := 0
		for r := range tr.Loss {
			if tr.Lost(r, i) {
				if j >= len(buf) || buf[j] != r {
					t.Fatalf("packet %d: LostReceivers %v misses receiver %d", i, buf, r)
				}
				j++
			}
		}
		if j != len(buf) {
			t.Fatalf("packet %d: LostReceivers has %d extra entries", i, len(buf)-j)
		}
	}
}

// TestWideTraceRoundTrip pins the on-disk format at wide receiver
// counts: marshal/unmarshal must reproduce the loss rows and tree.
func TestWideTraceRoundTrip(t *testing.T) {
	tr := wideTrace(t)
	var buf bytes.Buffer
	if err := Marshal(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumReceivers() != tr.NumReceivers() || back.NumPackets() != tr.NumPackets() {
		t.Fatalf("round trip shape %dx%d, want %dx%d",
			back.NumReceivers(), back.NumPackets(), tr.NumReceivers(), tr.NumPackets())
	}
	for r := range tr.Loss {
		for i := range tr.Loss[r] {
			if back.Loss[r][i] != tr.Loss[r][i] {
				t.Fatalf("receiver %d packet %d differs after round trip", r, i)
			}
		}
	}
}

// TestWideTraceLocality checks the locality analysis reports bursty,
// repeating loss on a Gilbert-generated wide trace.
func TestWideTraceLocality(t *testing.T) {
	s := AnalyzeLocality(wideTrace(t))
	if s.UncondLossProb <= 0 {
		t.Fatal("no loss recorded")
	}
	if s.LocalityRatio() < 2 {
		t.Fatalf("locality ratio %.2f, want bursty (>= 2)", s.LocalityRatio())
	}
	if s.PatternRepeat <= 0 {
		t.Fatal("pattern repetition is zero on a bursty trace")
	}
	if s.SameLinkConsecutive < 0 {
		t.Fatal("ground truth missing from generated trace")
	}
}

// TestExtendedCatalogEntry pins the SYN10K stress entry: resolvable by
// name but outside the default 14-trace catalog, and generable at a
// small scale with the advertised shape — a tree of over 1,024 nodes
// whose HopCount agrees with the explicit path length.
func TestExtendedCatalogEntry(t *testing.T) {
	if len(Catalog) != 14 {
		t.Fatalf("default catalog has %d entries, want 14", len(Catalog))
	}
	e, ok := ByName("SYN10K")
	if !ok {
		t.Fatal("SYN10K not resolvable by name")
	}
	if e.Index != 15 || e.Receivers != 10000 {
		t.Fatalf("entry = %+v", e)
	}
	if testing.Short() {
		t.Skip("generation takes a few seconds")
	}
	tr, err := e.Load(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumReceivers() != 10000 {
		t.Fatalf("receivers = %d, want 10000", tr.NumReceivers())
	}
	if tr.Tree.NumNodes() <= 1024 {
		t.Fatalf("nodes = %d, want > 1024", tr.Tree.NumNodes())
	}
	if tr.TotalLosses() == 0 {
		t.Fatal("no losses generated")
	}
	// Sample HopCount against the explicit path.
	rng := sim.NewRNG(1)
	recv := tr.Tree.Receivers()
	for k := 0; k < 200; k++ {
		a := recv[rng.Intn(len(recv))]
		b := recv[rng.Intn(len(recv))]
		if got, want := tr.Tree.HopCount(a, b), len(tr.Tree.PathLinks(a, b)); got != want {
			t.Fatalf("HopCount(%d, %d) = %d, path has %d links", a, b, got, want)
		}
	}
}
