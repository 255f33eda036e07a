package lossinfer

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// inferDigests renders one line per trace: its name, the number of
// distinct loss patterns, a SHA-256 over every packet's selected drop
// links (count, then each link, little-endian uint32s, in packet order),
// and a SHA-256 over the IEEE-754 bits of the selected probabilities.
func inferDigests(t *testing.T, traces []*trace.Trace) string {
	t.Helper()
	var out strings.Builder
	for _, tr := range traces {
		res, err := Infer(tr, EstimateYajnik(tr))
		if err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		drops, probs := sha256.New(), sha256.New()
		var cell [8]byte
		put := func(v int) {
			binary.LittleEndian.PutUint32(cell[:4], uint32(v))
			drops.Write(cell[:4])
		}
		for _, links := range res.Drops {
			put(len(links))
			for _, l := range links {
				put(int(l))
			}
		}
		for _, p := range res.SelectedProbs {
			binary.LittleEndian.PutUint64(cell[:], math.Float64bits(p))
			probs.Write(cell[:])
		}
		fmt.Fprintf(&out, "%s %d %x %x\n", tr.Name, res.DistinctPatterns, drops.Sum(nil), probs.Sum(nil))
	}
	return out.String()
}

// wideSpec is a benchmark-shaped wide group: depth 7, packets at 40 ms,
// 5 % of receiver-packets lost.
func wideSpec(name string, receivers, packets int, seed int64) trace.GenSpec {
	return trace.GenSpec{
		Name:         name,
		Topology:     topology.GenSpec{Receivers: receivers, Depth: 7},
		NumPackets:   packets,
		Period:       40 * time.Millisecond,
		TargetLosses: receivers * packets / 20,
		Seed:         seed,
	}
}

// TestInferDigests pins the link trace representation: the 14 catalog
// traces at scale 0.1, a 512-receiver and a 1,024-receiver trace must
// infer the recorded drops, probabilities and pattern counts bit for
// bit. A drift means the inference changed; it is not a golden to
// regenerate.
func TestInferDigests(t *testing.T) {
	traces, err := trace.LoadCatalog(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []trace.GenSpec{
		wideSpec("WIDE512", 512, 1237, 9701),
		wideSpec("WIDE1024", 1024, 250, 9702),
	} {
		tr, err := trace.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "infer-digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := inferDigests(t, traces)
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(g) != len(w) {
		t.Fatalf("rendered %d lines, golden has %d", len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
}
