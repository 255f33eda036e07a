package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

func TestRunCatalogTraceBothProtocols(t *testing.T) {
	for _, proto := range []string{"srm", "cesrm", "lms"} {
		err := run([]string{"-trace", "WRN951216", "-scale", "0.005", "-protocol", proto}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}

func TestRunRouterAssistAndLossy(t *testing.T) {
	err := run([]string{"-trace", "WRN951211", "-scale", "0.005", "-router-assist", "-lossy"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunFromFile(t *testing.T) {
	tr, err := trace.Generate(trace.GenSpec{
		Name:         "filetest",
		Topology:     topology.GenSpec{Receivers: 6, Depth: 3},
		NumPackets:   800,
		Period:       80 * time.Millisecond,
		TargetLosses: 250,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Marshal(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run([]string{"-file", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerifyDeterminism(t *testing.T) {
	err := run([]string{"-trace", "WRN951216", "-scale", "0.005", "-verify-determinism", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunEventsNDJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	if err := run([]string{"-trace", "WRN951216", "-scale", "0.005", "-events", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) < 10 {
		t.Fatalf("event dump has %d lines, expected a substantial timeline", len(lines))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if _, ok := m["kind"]; !ok {
			t.Fatalf("line %d has no kind field: %s", i, line)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-trace", "NOPE"}, io.Discard); err == nil {
		t.Fatal("unknown trace accepted")
	}
	if err := run([]string{"-protocol", "tcp"}, io.Discard); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if err := run([]string{"-file", "/does/not/exist"}, io.Discard); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"-scale", "-7"}, io.Discard); err == nil {
		t.Fatal("bad scale accepted")
	}
	// Removed flags: -shards with the second dispatch mode, -replay for
	// cesrm-soak's. A script that still passes one must hear about it.
	for _, args := range [][]string{{"-shards", "2"}, {"-replay", "x"}} {
		err := run(append(args, "-scale", "0.01"), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%s: err = %v, want an unknown-flag error", args[0], err)
		}
	}
}

// TestReportGolden diffs the plain report of WRN951216 at scale 0.01
// under CESRM against its recording (CI diffs what the CLI prints too):
// the one CLI output that prints the aggregates and percentiles of a
// run that retains its recovery records.
func TestReportGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "report-WRN951216-scale-0.01.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-trace", "WRN951216", "-scale", "0.01"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("the report printed\n%s\nwant\n%s", got.String(), want)
	}
}

// TestExplainGolden diffs one loss's causal chain, packet 322 at host 8
// of WRN951216 at scale 0.01 under CESRM, against its recording (CI
// diffs what the CLI prints too), and requires -explain to leave the
// run fingerprint as the plain report prints it: retaining the events
// must not change the run.
func TestExplainGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "explain-WRN951216-scale-0.01-8-322.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got, plain bytes.Buffer
	if err := run([]string{"-trace", "WRN951216", "-scale", "0.01", "-explain", "8:322"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("-explain 8:322 printed\n%s\nwant\n%s", got.String(), want)
	}
	if err := run([]string{"-trace", "WRN951216", "-scale", "0.01"}, &plain); err != nil {
		t.Fatal(err)
	}
	fp := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "fingerprint: ") {
				return line
			}
		}
		return ""
	}
	if a, b := fp(got.String()), fp(plain.String()); a == "" || a != b {
		t.Errorf("-explain printed %q, the plain report %q", a, b)
	}
	for _, bad := range []string{"8", "8:x", "-1:3", "8:1"} {
		if err := run([]string{"-trace", "WRN951216", "-scale", "0.01", "-explain", bad}, io.Discard); err == nil {
			t.Errorf("-explain %s accepted", bad)
		}
	}
}

// TestDiffGolden diffs two runs of WRN951216 at scale 0.01 under CESRM,
// the second with one extra link-down window, against the recording (CI
// diffs what the CLI prints too); a stream diffed against itself is
// identical and every loss unchanged.
func TestDiffGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "diff-WRN951216-scale-0.01-link-down-7.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ndjson"), filepath.Join(dir, "b.ndjson")
	const base = "link-down@30s-30.1s:link=1"
	for _, c := range []struct{ file, chaos string }{{a, base}, {b, base + ";link-down@21s-21.05s:link=7"}} {
		if err := run([]string{"-trace", "WRN951216", "-scale", "0.01", "-chaos", c.chaos, "-events", c.file}, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	var got, self bytes.Buffer
	if err := run([]string{"-diff", a, b}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("-diff printed\n%s\nwant\n%s", got.String(), want)
	}
	if err := run([]string{"-diff", a, a}, &self); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(self.String(), "the event streams are identical\nlosses whose outcome changed: 0\n") {
		t.Errorf("a stream diffed against itself:\n%s", self.String())
	}
	for _, bad := range [][]string{{"-diff", a}, {"-diff", a, filepath.Join(dir, "missing.ndjson")}} {
		if err := run(bad, io.Discard); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}
