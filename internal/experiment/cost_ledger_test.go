package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCostLedger diffs the cost ledger (RenderCosts) of the 14-trace
// SRM+CESRM suite, seed 1, against its recording: exactly what
// `cesrm-bench -section costs` prints below its header. Every column is
// an exact count, so any drift is a change in the work the simulator
// does. A change that moves a count on purpose re-records the file and
// says which columns moved and why. Scale 0.1 is also diffed by CI.
func TestCostLedger(t *testing.T) {
	for _, scale := range []float64{0.01, 0.1} {
		if scale == 0.1 && testing.Short() {
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", "cost-ledger", fmt.Sprintf("scale-%g.txt", scale)))
		if err != nil {
			t.Fatal(err)
		}
		results, err := Suite{Scale: scale, Seed: 1}.Run()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		RenderCosts(&got, results)
		if got.String() == string(want) {
			continue
		}
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(g), len(w)); i++ {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			if gl != wl {
				t.Errorf("scale %g line %d:\n got %s\nwant %s", scale, i+1, gl, wl)
			}
		}
	}
}
