package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"cesrm/internal/netsim"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// catalogGolden reads the recorded fingerprints section of the 14-trace
// SRM+CESRM suite at the given scale, seed 1: exactly what
// RenderFingerprints prints. Scales 0.01 and 0.1 are checked by
// TestCatalogFingerprints; scale-1.txt and scale-5.txt are recorded and
// checked on demand (README "Run fingerprints"). A drift is a behavior
// change, not a golden to update.
func catalogGolden(t *testing.T, scale float64) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "catalog-fingerprints", fmt.Sprintf("scale-%g.txt", scale)))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// diffFingerprints compares a rendered fingerprints section with its
// golden text byte for byte and, on a mismatch, names each diverging
// run by trace and protocol.
func diffFingerprints(got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(g) != len(w) {
		return fmt.Errorf("rendered %d lines, golden has %d", len(g), len(w))
	}
	var diffs []string
	for i := range w {
		if g[i] == w[i] {
			continue
		}
		gf, wf := strings.Fields(g[i]), strings.Fields(w[i])
		if len(gf) != 4 || len(wf) != 4 || gf[0] != wf[0] || gf[1] != wf[1] {
			diffs = append(diffs, fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i]))
			continue
		}
		for c, proto := range []Protocol{SRM, CESRM} {
			if gf[2+c] != wf[2+c] {
				diffs = append(diffs, fmt.Sprintf("trace %s %v: got %s, want %s", wf[1], proto, gf[2+c], wf[2+c]))
			}
		}
	}
	return errors.New(strings.Join(diffs, "\n"))
}

// TestCatalogFingerprints is the repo's behavior-preservation gate: the
// paper's whole evaluation (14 traces × SRM/CESRM) must reproduce the
// recorded fingerprints through both bodies of the flood, and at scale
// 0.01 with release off too. By default the
// loss model declares each flood's lost links up front and unobstructed
// floods replay precompiled cohorts; the scan leg withdraws the verdict
// through the networkBuilt seam, so every flood takes replayPlan's scan
// and asks the per-link DropFunc, and counts those calls to prove it.
func TestCatalogFingerprints(t *testing.T) {
	for _, scale := range []float64{0.01, 0.1} {
		if scale == 0.1 && testing.Short() {
			continue // ~20 s under -race
		}
		want := catalogGolden(t, scale)
		for _, scan := range []bool{false, true} {
			name := "cohort"
			if scan {
				name = "scan"
			}
			t.Run(fmt.Sprintf("scale=%g/flood=%s", scale, name), func(t *testing.T) {
				var calls atomic.Uint64
				if scan {
					wrapDrop(t, func(*netsim.Packet, topology.LinkID, bool) bool {
						calls.Add(1)
						return false
					})
				}
				results, err := Suite{Scale: scale, Seed: 1}.Run()
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				RenderFingerprints(&got, results)
				if err := diffFingerprints(got.String(), want); err != nil {
					t.Fatalf("catalog fingerprints drifted:\n%v", err)
				}
				if scan && calls.Load() == 0 {
					t.Fatal("no flood asked the per-link drop hook: the scan leg ran the cohort body")
				}
			})
		}
	}

	// Suite.Run forces release on, so this leg is where the retained
	// collector's query-time fold, which cesrm-sim, RunComparison and the
	// examples read, meets the goldens on every trace.
	t.Run("scale=0.01/release=off", func(t *testing.T) {
		var results []SuiteResult
		for _, e := range trace.Catalog {
			tr, err := e.Load(0.01)
			if err != nil {
				t.Fatal(err)
			}
			pair, err := RunPair(tr, RunConfig{Seed: 1 + int64(e.Index)})
			if err != nil {
				t.Fatal(err)
			}
			if len(pair.SRM.Collector.Recoveries()) == 0 || len(pair.CESRM.Collector.Recoveries()) == 0 {
				t.Fatalf("trace %s: no retained recovery records", e.Name)
			}
			results = append(results, SuiteResult{Entry: e, Pair: pair})
		}
		var got bytes.Buffer
		RenderFingerprints(&got, results)
		if err := diffFingerprints(got.String(), catalogGolden(t, 0.01)); err != nil {
			t.Fatalf("catalog fingerprints drifted with release off:\n%v", err)
		}
	})

	// The gate must notice a single flipped hex digit and say which run.
	t.Run("mutation", func(t *testing.T) {
		golden := catalogGolden(t, 0.01)
		const digest = "v2:1ce358c9f53792a26337ff3c355e61fa" // WRN951216, CESRM
		mutated := strings.Replace(golden, digest, "v2:0"+digest[4:], 1)
		if mutated == golden {
			t.Fatal("golden text lost the digest this check mutates")
		}
		err := diffFingerprints(golden, mutated)
		if err == nil {
			t.Fatal("one flipped hex digit passed the comparison")
		}
		if msg := err.Error(); !strings.Contains(msg, "WRN951216") || !strings.Contains(msg, "CESRM") {
			t.Fatalf("mismatch does not name the run: %v", err)
		}
	})
}
