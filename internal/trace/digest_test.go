package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cesrm/internal/topology"
)

// traceDigests renders one line per trace: its name, the SHA-256 of its
// Marshal output, and a SHA-256 over every packet's ground-truth drop
// links (count, then each link, little-endian uint32s, in packet order).
func traceDigests(t *testing.T, traces []*Trace) string {
	t.Helper()
	var out strings.Builder
	for _, tr := range traces {
		var text bytes.Buffer
		if err := Marshal(&text, tr); err != nil {
			t.Fatal(err)
		}
		drops := sha256.New()
		var cell [4]byte
		put := func(v int) {
			binary.LittleEndian.PutUint32(cell[:], uint32(v))
			drops.Write(cell[:])
		}
		for i := 0; i < tr.NumPackets(); i++ {
			links := tr.TrueDropsAt(i)
			put(len(links))
			for _, l := range links {
				put(int(l))
			}
		}
		fmt.Fprintf(&out, "%s %x %x\n", tr.Name, sha256.Sum256(text.Bytes()), drops.Sum(nil))
	}
	return out.String()
}

// TestCatalogTraceDigests pins the generator's output across changes of
// the in-memory representation and of the generator's algorithm: the 14
// catalog traces at scale 0.1, one 512-receiver trace, the
// cache_overflow workload's 1,024-receiver trace and a depth-10 tree
// with every link lossy and one-packet bursts must serialize to the
// recorded bytes and carry the recorded ground truth. The first 15
// goldens were recorded from the dense [][]bool / [][]LinkID
// representation, the last two from the per-receiver path scan; a drift
// is a changed trace, not a golden to update.
func TestCatalogTraceDigests(t *testing.T) {
	traces, err := LoadCatalog(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []GenSpec{{
		Name:         "WIDE512",
		Topology:     topology.GenSpec{Receivers: 512, Depth: 7},
		NumPackets:   1237,
		Period:       40 * time.Millisecond,
		TargetLosses: 512 * 1237 / 20,
		Seed:         9701,
	}, {
		Name:         "WIDE1024",
		Topology:     topology.GenSpec{Receivers: 1024, Depth: 7},
		NumPackets:   250,
		Period:       40 * time.Millisecond,
		TargetLosses: 1024 * 250 / 20,
		Seed:         9702,
	}, {
		Name:              "DEEP10",
		Topology:          topology.GenSpec{Receivers: 300, Depth: 10},
		NumPackets:        400,
		Period:            80 * time.Millisecond,
		TargetLosses:      300 * 400 / 10,
		MeanBurstLen:      1,
		LossyLinkFraction: 1,
		Seed:              9703,
	}} {
		tr, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trace-digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := traceDigests(t, traces)
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
