package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunSections(t *testing.T) {
	for _, section := range []string{"table1", "sec42", "summary", "fig1", "fig2", "fig3", "fig4", "fig5", "fig1bars", "fig5bars", "compare", "fingerprints", "costs"} {
		err := run([]string{"-scale", "0.005", "-traces", "13", "-section", section}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", section, err)
		}
	}
}

func TestRunAllSectionsTwoTraces(t *testing.T) {
	if err := run([]string{"-scale", "0.005", "-traces", "4,13", "-section", "all"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunPolicies(t *testing.T) {
	for _, pol := range []string{"most-recent", "most-frequent"} {
		if err := run([]string{"-scale", "0.005", "-traces", "13", "-section", "summary", "-policy", pol}, io.Discard); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
}

func TestRunLossyAndRouterAssist(t *testing.T) {
	err := run([]string{"-scale", "0.005", "-traces", "13", "-section", "summary", "-lossy", "-router-assist"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

// fingerprintRows runs the fingerprints section and returns, per swept
// scale in order, the rendered trace rows as [index, name, srm, cesrm].
func fingerprintRows(t *testing.T, args ...string) [][][]string {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-section", "fingerprints"), &out); err != nil {
		t.Fatal(err)
	}
	var blocks [][][]string
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "Fingerprints:"):
			blocks = append(blocks, nil)
		case len(f) == 4 && strings.HasPrefix(f[2], "v2:") && strings.HasPrefix(f[3], "v2:"):
			if len(blocks) == 0 {
				t.Fatalf("fingerprint row before any section header: %q", line)
			}
			blocks[len(blocks)-1] = append(blocks[len(blocks)-1], f)
		}
	}
	return blocks
}

func TestRunScaleSweep(t *testing.T) {
	blocks := fingerprintRows(t, "-scale", "0.004", "-scale", "0.006", "-traces", "13")
	if len(blocks) != 2 || len(blocks[0]) != 1 || len(blocks[1]) != 1 {
		t.Fatalf("sweep rendered %v, want one block of one row per swept scale", blocks)
	}
	if blocks[0][0][2] == blocks[1][0][2] {
		t.Fatal("different scales produced identical fingerprints")
	}
}

func TestRunTraceNameFilter(t *testing.T) {
	// "wrn" matches the eleven WRN* catalog traces, case-insensitively.
	blocks := fingerprintRows(t, "-scale", "0.004", "-trace", "wrn")
	if len(blocks) != 1 || len(blocks[0]) == 0 {
		t.Fatalf("name filter rendered %v, want one block with at least one row", blocks)
	}
	for _, row := range blocks[0] {
		if !strings.Contains(strings.ToLower(row[1]), "wrn") {
			t.Fatalf("name filter selected %q, want only WRN traces", row[1])
		}
	}
}

// TestChaosMatrixFingerprints renders the whole scale-0.01 chaos matrix
// (every catalog trace × every chaos.Scenarios spec × SRM/CESRM) and
// diffs it against the recorded output. It is the golden for runs with a
// chaos spec armed: session starvation, duplicates, jitter ramps, link
// flaps, crashes, membership churn and queue-cap windows. A drift is a
// behaviour change, not a golden to regenerate.
func TestChaosMatrixFingerprints(t *testing.T) {
	const golden = "../../internal/experiment/testdata/chaos-fingerprints/scale-0.01-seed-1.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-chaos-matrix", "-scale", "0.01", "-seed", "1"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("chaos matrix diverges from %s at line %d:\n got %q\nwant %q", golden, i+1, g, w)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-section", "bogus", "-scale", "0.005", "-traces", "13"}, io.Discard); err == nil {
		t.Fatal("unknown section accepted")
	}
	if err := run([]string{"-policy", "bogus"}, io.Discard); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := run([]string{"-traces", "x"}, io.Discard); err == nil {
		t.Fatal("bad trace list accepted")
	}
	if err := run([]string{"-traces", "99", "-scale", "0.005"}, io.Discard); err == nil {
		t.Fatal("out-of-range trace accepted")
	}
	if err := run([]string{"-scale", "0"}, io.Discard); err == nil {
		t.Fatal("zero scale accepted")
	}
	if err := run([]string{"-scale", "-0.5"}, io.Discard); err == nil {
		t.Fatal("negative scale accepted")
	}
	if err := run([]string{"-scale", "0.005", "-trace", "nosuchtrace"}, io.Discard); err == nil {
		t.Fatal("unmatched trace name filter accepted")
	}
	// Removed with the second perf harness; they must not be silently
	// accepted by a script that still passes them.
	for _, args := range [][]string{{"-json", "x"}, {"-repeat", "3"}} {
		err := run(append(args, "-scale", "0.005", "-traces", "13"), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%v: err = %v, want an unknown-flag error", args, err)
		}
	}
}

// TestFlagSurface pins what -h prints: every flag's name, type, default
// and usage, as the flag package lists them. A usage may be reworded; a
// changed name, type or default breaks the scripts that pass it. The
// -parallel default is the host's CPU count, so it is recorded as
// NumCPU.
func TestFlagSurface(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "flags.txt"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	err = run([]string{"-h"}, io.Discard)
	os.Stderr = saved
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v", err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Replace(string(out), fmt.Sprintf("(1 = serial) (default %d)", runtime.NumCPU()), "(1 = serial) (default NumCPU)", 1)
	if got != string(want) {
		t.Errorf("-h printed\n%s\nwant\n%s", got, want)
	}
}
