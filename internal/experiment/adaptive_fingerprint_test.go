package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cesrm/internal/srm"
	"cesrm/internal/trace"
)

// adaptiveFingerprints runs every third catalog trace (0-based 0, 3, 6,
// 9, 12) at scale 0.1 under both protocols with adaptive timers on and
// renders the fingerprints the way RenderFingerprints does.
func adaptiveFingerprints(t *testing.T) string {
	t.Helper()
	var results []SuiteResult
	for i := 0; i < len(trace.Catalog); i += 3 {
		entry := trace.Catalog[i]
		tr, err := entry.Load(0.1)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := RunPair(tr, RunConfig{
			Seed:             3,
			ReleaseRecovered: true,
			Adaptive:         srm.DefaultAdaptiveConfig(),
		})
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		results = append(results, SuiteResult{Entry: entry, Pair: pair})
	}
	var out bytes.Buffer
	RenderFingerprints(&out, results)
	return out.String()
}

// TestAdaptiveFingerprints pins runs with adaptive timers on — the mode
// in which a host's reply record outlives its timer and every duplicate
// reply feeds the D1/D2 averages, which no catalog golden exercises.
// The goldens were recorded at commit 12b433d, before reply records
// moved into window cells; like the catalog's, a drift is a behavior
// change, not a golden to update.
func TestAdaptiveFingerprints(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "adaptive-fingerprints", "scale-0.1-seed-3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := diffFingerprints(adaptiveFingerprints(t), string(want)); err != nil {
		t.Fatalf("adaptive-timer fingerprints drifted:\n%v", err)
	}
}
