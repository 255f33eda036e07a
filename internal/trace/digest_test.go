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
// the in-memory representation: the 14 catalog traces at scale 0.1 and
// one 512-receiver trace must serialize to the recorded bytes and carry
// the recorded ground truth. The goldens were recorded from the dense
// [][]bool / [][]LinkID representation; a drift is a changed trace, not
// a golden to update.
func TestCatalogTraceDigests(t *testing.T) {
	traces, err := LoadCatalog(0.1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Generate(GenSpec{
		Name:         "WIDE512",
		Topology:     topology.GenSpec{Receivers: 512, Depth: 7},
		NumPackets:   1237,
		Period:       40 * time.Millisecond,
		TargetLosses: 512 * 1237 / 20,
		Seed:         9701,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trace-digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := traceDigests(t, append(traces, wide))
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
