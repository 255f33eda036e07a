package trace

import (
	"slices"
	"testing"
	"time"

	"cesrm/internal/topology"
)

// tinyTrace builds a hand-crafted 2-receiver, 4-packet trace:
//
//	0 -> 1 -> {2, 3}
func tinyTrace(t *testing.T) *Trace {
	t.Helper()
	tree := topology.MustNew([]topology.NodeID{topology.None, 0, 1, 1})
	tr, err := FromRows("tiny", tree, 80*time.Millisecond, [][]bool{
		{false, true, true, false},  // receiver 2
		{false, false, true, false}, // receiver 3
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := tinyTrace(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	good := tinyTrace(t)

	noTree := *good
	noTree.Tree = nil
	if noTree.Validate() == nil {
		t.Error("accepted nil tree")
	}

	badRows := *good
	badRows.Loss = good.Loss[:1]
	if badRows.Validate() == nil {
		t.Error("accepted wrong receiver count")
	}

	ragged := *good
	ragged.Loss = [][]uint64{{0}, {0, 0}}
	if ragged.Validate() == nil {
		t.Error("accepted ragged loss rows")
	}

	padded := *good
	padded.Loss = [][]uint64{{0b0110}, {1 << 4}}
	if padded.Validate() == nil {
		t.Error("accepted a loss bit past the last packet")
	}

	noPackets := *good
	noPackets.Packets = 0
	if noPackets.Validate() == nil {
		t.Error("accepted zero packets")
	}

	noPeriod := *good
	noPeriod.Period = 0
	if noPeriod.Validate() == nil {
		t.Error("accepted zero period")
	}

	for name, d := range map[string]*DropTable{
		"a row past the last packet": {Seqs: []int32{4}, Offs: []int32{0, 1}, Links: []topology.LinkID{1}},
		"descending rows":            {Seqs: []int32{2, 1}, Offs: []int32{0, 1, 2}, Links: []topology.LinkID{1, 2}},
		"an empty row":               {Seqs: []int32{1, 2}, Offs: []int32{0, 0, 1}, Links: []topology.LinkID{1}},
		"offsets short of the links": {Seqs: []int32{1}, Offs: []int32{0, 1}, Links: []topology.LinkID{1, 2}},
		"missing offsets":            {Seqs: []int32{1}, Links: []topology.LinkID{1}},
	} {
		badDrops := *good
		badDrops.TrueDrops = d
		if badDrops.Validate() == nil {
			t.Errorf("accepted TrueDrops with %s", name)
		}
	}
	if _, err := FromRows("x", good.Tree, good.Period, [][]bool{{false}, {false, true}}, nil); err == nil {
		t.Error("FromRows accepted ragged loss rows")
	}
	if _, err := FromRows("x", good.Tree, good.Period, [][]bool{{true}, {false}}, make([][]topology.LinkID, 2)); err == nil {
		t.Error("FromRows accepted wrong TrueDrops length")
	}
}

func TestBasicAccessors(t *testing.T) {
	tr := tinyTrace(t)
	if tr.NumPackets() != 4 || tr.NumReceivers() != 2 {
		t.Fatalf("packets=%d receivers=%d", tr.NumPackets(), tr.NumReceivers())
	}
	if tr.Duration() != 320*time.Millisecond {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	if tr.TotalLosses() != 3 {
		t.Fatalf("TotalLosses = %d, want 3", tr.TotalLosses())
	}
	if tr.ReceiverLosses(0) != 2 || tr.ReceiverLosses(1) != 1 {
		t.Fatal("per-receiver loss counts wrong")
	}
	if !tr.Lost(0, 1) || tr.Lost(1, 0) {
		t.Fatal("Lost() wrong")
	}
	if tr.ReceiverIndex(2) != 0 || tr.ReceiverIndex(3) != 1 || tr.ReceiverIndex(0) != -1 {
		t.Fatal("ReceiverIndex wrong")
	}
}

func TestLostReceivers(t *testing.T) {
	tr := tinyTrace(t)
	for i, want := range [][]int{nil, {0}, {0, 1}} {
		if got := tr.LostReceivers(i, nil); !slices.Equal(got, want) {
			t.Fatalf("LostReceivers(%d) = %v, want %v", i, got, want)
		}
	}
	// The result appends to the buffer it is given.
	if got := tr.LostReceivers(2, []int{7}); !slices.Equal(got, []int{7, 0, 1}) {
		t.Fatalf("LostReceivers(2, [7]) = %v, want [7 0 1]", got)
	}
}

func TestComputeStats(t *testing.T) {
	s := tinyTrace(t).ComputeStats()
	if s.Receivers != 2 || s.TreeDepth != 2 || s.Packets != 4 || s.Losses != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestMeanBurstLength(t *testing.T) {
	tr := tinyTrace(t)
	// Receiver 0: one burst of 2; receiver 1: one burst of 1 => 3/2.
	if got := tr.MeanBurstLength(); got != 1.5 {
		t.Fatalf("MeanBurstLength = %v, want 1.5", got)
	}
	empty := *tr
	empty.Loss = [][]uint64{{0}, {0}}
	if got := empty.MeanBurstLength(); got != 0 {
		t.Fatalf("lossless burst length = %v, want 0", got)
	}
}

func TestGenerateHitsTargetApproximately(t *testing.T) {
	spec := GenSpec{
		Name:         "synthetic",
		Topology:     topology.GenSpec{Receivers: 10, Depth: 4},
		NumPackets:   20000,
		Period:       80 * time.Millisecond,
		TargetLosses: 6000,
		Seed:         7,
	}
	tr, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if e := CalibrationError(tr, spec.TargetLosses); e > 0.25 {
		t.Fatalf("calibration error %.2f (losses=%d target=%d)", e, tr.TotalLosses(), spec.TargetLosses)
	}
	if tr.Tree.NumReceivers() != 10 || tr.Tree.MaxDepth() != 4 {
		t.Fatalf("topology %v does not match spec", tr.Tree)
	}
}

func TestGenerateProducesBurstyLoss(t *testing.T) {
	spec := GenSpec{
		Name:         "bursty",
		Topology:     topology.GenSpec{Receivers: 8, Depth: 4},
		NumPackets:   30000,
		Period:       80 * time.Millisecond,
		TargetLosses: 9000,
		MeanBurstLen: 8,
		Seed:         21,
	}
	tr, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Burst structure is the loss locality CESRM exploits; mean run
	// length must be well above the Bernoulli expectation (~1/(1-p)).
	if got := tr.MeanBurstLength(); got < 3 {
		t.Fatalf("MeanBurstLength = %.2f, want >= 3 (bursty)", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{
		Name:         "det",
		Topology:     topology.GenSpec{Receivers: 6, Depth: 3},
		NumPackets:   5000,
		Period:       40 * time.Millisecond,
		TargetLosses: 1500,
		Seed:         5,
	}
	a := MustGenerate(spec)
	b := MustGenerate(spec)
	if a.TotalLosses() != b.TotalLosses() {
		t.Fatal("same seed produced different traces")
	}
	for r := range a.Loss {
		for i := range a.Loss[r] {
			if a.Loss[r][i] != b.Loss[r][i] {
				t.Fatal("same seed produced different loss sequences")
			}
		}
	}
}

func TestGenerateTrueDropsConsistent(t *testing.T) {
	spec := GenSpec{
		Name:         "truth",
		Topology:     topology.GenSpec{Receivers: 8, Depth: 4},
		NumPackets:   4000,
		Period:       80 * time.Millisecond,
		TargetLosses: 1600,
		Seed:         3,
	}
	tr := MustGenerate(spec)
	// The ground-truth drop set must explain each packet's loss pattern:
	// receiver r lost packet i iff some true drop link is on r's path.
	root := tr.Tree.Root()
	for i := 0; i < tr.NumPackets(); i++ {
		drops := tr.TrueDropsAt(i)
		for ri, r := range tr.Tree.Receivers() {
			onPath := false
			for _, l := range tr.Tree.PathLinks(root, r) {
				for _, d := range drops {
					if l == d {
						onPath = true
					}
				}
			}
			if onPath != tr.Lost(ri, i) {
				t.Fatalf("packet %d receiver %d: ground truth does not explain loss pattern", i, ri)
			}
		}
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	base := GenSpec{
		Topology:     topology.GenSpec{Receivers: 5, Depth: 3},
		NumPackets:   100,
		Period:       time.Millisecond,
		TargetLosses: 10,
	}
	cases := []func(*GenSpec){
		func(s *GenSpec) { s.NumPackets = 0 },
		func(s *GenSpec) { s.Period = 0 },
		func(s *GenSpec) { s.TargetLosses = -1 },
		func(s *GenSpec) { s.TargetLosses = 10000 },
		func(s *GenSpec) { s.Topology.Receivers = 0 },
		func(s *GenSpec) { s.MeanBurstLen = 0.5 },
	}
	for i, mutate := range cases {
		spec := base
		mutate(&spec)
		if _, err := Generate(spec); err == nil {
			t.Errorf("case %d: bad spec accepted", i)
		}
	}
}

func TestCatalogMatchesTable1(t *testing.T) {
	if len(Catalog) != 14 {
		t.Fatalf("catalog has %d traces, want 14", len(Catalog))
	}
	// Spot-check the first and last rows against Table 1.
	if e := Catalog[0]; e.Name != "RFV960419" || e.Receivers != 12 || e.TreeDepth != 6 ||
		e.Period != 80*time.Millisecond || e.Packets != 45001 || e.Losses != 24086 {
		t.Fatalf("row 1 = %+v", e)
	}
	if e := Catalog[13]; e.Name != "WRN951218" || e.Receivers != 8 || e.TreeDepth != 3 ||
		e.Packets != 69994 || e.Losses != 43578 {
		t.Fatalf("row 14 = %+v", e)
	}
	for i, e := range Catalog {
		if e.Index != i+1 {
			t.Errorf("row %d has index %d", i, e.Index)
		}
	}
}

func TestCatalogLoadScaledShape(t *testing.T) {
	for _, e := range Catalog[:3] {
		tr, err := e.Load(0.02)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if tr.NumReceivers() != e.Receivers {
			t.Errorf("%s: receivers %d, want %d", e.Name, tr.NumReceivers(), e.Receivers)
		}
		if tr.Tree.MaxDepth() != e.TreeDepth {
			t.Errorf("%s: depth %d, want %d", e.Name, tr.Tree.MaxDepth(), e.TreeDepth)
		}
		wantRate := float64(e.Losses) / float64(e.Packets*e.Receivers)
		gotRate := float64(tr.TotalLosses()) / float64(tr.NumPackets()*tr.NumReceivers())
		if gotRate < wantRate*0.5 || gotRate > wantRate*1.6 {
			t.Errorf("%s: loss rate %.3f, want about %.3f", e.Name, gotRate, wantRate)
		}
	}
}

func TestSpecRejectsBadScale(t *testing.T) {
	if _, err := Catalog[0].Spec(0); err == nil {
		t.Fatal("accepted scale 0")
	}
	if _, err := Catalog[0].Spec(-1); err == nil {
		t.Fatal("accepted negative scale")
	}
	// Scales above 1 extrapolate beyond the recorded volumes and are
	// valid (memory-scaling experiments use them).
	spec, err := Catalog[0].Spec(2)
	if err != nil {
		t.Fatalf("rejected scale 2: %v", err)
	}
	if spec.NumPackets != 2*Catalog[0].Packets {
		t.Fatalf("scale 2 packets = %d, want %d", spec.NumPackets, 2*Catalog[0].Packets)
	}
}

func TestByName(t *testing.T) {
	e, ok := ByName("UCB960424")
	if !ok || e.Index != 3 {
		t.Fatalf("ByName = %+v, %v", e, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("found nonexistent trace")
	}
}

func BenchmarkGenerate(b *testing.B) {
	spec := GenSpec{
		Name:         "bench",
		Topology:     topology.GenSpec{Receivers: 10, Depth: 4},
		NumPackets:   10000,
		Period:       80 * time.Millisecond,
		TargetLosses: 3000,
		Seed:         1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeLocality(b *testing.B) {
	tr := MustGenerate(GenSpec{
		Name:         "bench",
		Topology:     topology.GenSpec{Receivers: 10, Depth: 4},
		NumPackets:   20000,
		Period:       80 * time.Millisecond,
		TargetLosses: 6000,
		Seed:         1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeLocality(tr)
	}
}
