package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestSoakOutputIsBitReproducible is the CLI acceptance criterion:
// cesrm-soak -seed S -trials N prints byte-identical output across
// runs.
func TestSoakOutputIsBitReproducible(t *testing.T) {
	args := []string{"-seed", "3", "-trials", "5", "-scale", "0.01", "-traces", "4", "-protocols", "SRM,CESRM"}
	runOnce := func() (int, string) {
		var out, errb bytes.Buffer
		code := run(args, &out, &errb)
		if errb.Len() > 0 {
			t.Fatalf("stderr: %s", errb.String())
		}
		return code, out.String()
	}
	codeA, outA := runOnce()
	codeB, outB := runOnce()
	if codeA != codeB || outA != outB {
		t.Fatalf("runs diverged (codes %d/%d):\n--- first\n%s--- second\n%s", codeA, codeB, outA, outB)
	}
	if !strings.Contains(outA, "soak: 5 trials") {
		t.Fatalf("missing summary in output:\n%s", outA)
	}
}

// TestSoakLogGolden diffs the CI campaign's log (cesrm-soak -seed 1
// -trials 25 -scale 0.01 -minimize) against its recorded output. Every
// clean trial prints its run fingerprint, so a changed run shows as a
// changed line, not only a failing one. A drift is a behaviour change,
// not a golden to regenerate.
func TestSoakLogGolden(t *testing.T) {
	const golden = "../../testdata/soak-log/seed-1-trials-25-scale-0.01.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-seed", "1", "-trials", "25", "-scale", "0.01", "-minimize"}, &out, &errb)
	if code != 0 || errb.Len() > 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("soak log diverges from %s at line %d:\n got  %q\n want %q", golden, i+1, g, w)
		}
	}
}

// TestReplayCommittedCorpus replays the repo corpus through the CLI:
// exit 0, every entry reported with a structured status.
func TestReplayCommittedCorpus(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-replay", "../../testdata/soak-corpus"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "pr4-clock-overflow.spec: ok status=Completed") {
		t.Fatalf("PR 4 entry did not replay to completion:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0 fatal") {
		t.Fatalf("replay summary missing:\n%s", out.String())
	}
}

// TestBadFlagsExitTwo pins usage errors apart from trial failures.
func TestBadFlagsExitTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-protocols", "WARP"}, &out, &errb); code != 2 {
		t.Fatalf("bad protocol exited %d, want 2", code)
	}
	if code := run([]string{"-traces", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("bad trace list exited %d, want 2", code)
	}
}
