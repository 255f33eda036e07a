package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixtures = "../../internal/wire/testdata"

// TestConformCommittedCaptures: conform mode certifies the three
// committed captures, one verdict line each with the capture's counts.
func TestConformCommittedCaptures(t *testing.T) {
	var out bytes.Buffer
	paths := []string{
		filepath.Join(fixtures, "capture_node0.ndjson"),
		filepath.Join(fixtures, "capture_node3.ndjson"),
		filepath.Join(fixtures, "capture_node4.ndjson"),
	}
	if err := runConform(paths, &out); err != nil {
		t.Fatalf("runConform: %v\n%s", err, out.String())
	}
	want := []string{
		paths[0] + ": node 0 CONFORMS: 27 sends, 15 events, 0 recoveries (0 expedited), completed=true",
		paths[1] + ": node 3 CONFORMS: 13 sends, 19 events, 3 recoveries (1 expedited), completed=true",
		paths[2] + ": node 4 CONFORMS: 11 sends, 15 events, 2 recoveries (1 expedited), completed=true",
	}
	if got := strings.Split(strings.TrimSpace(out.String()), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("output:\n%s\nwant:\n%s", out.String(), strings.Join(want, "\n"))
	}
}

// TestConformReportsDivergence: a capture whose first send is one
// nanosecond off is reported as DIVERGES with the divergence rendered
// under it, the conforming capture beside it still gets its line, and the
// run fails.
func TestConformReportsDivergence(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(fixtures, "capture_node0.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	const sent = `{"kind":"send","at_ns":21597796,`
	if !bytes.Contains(raw, []byte(sent)) {
		t.Fatal("fixture's first send moved")
	}
	mutated := filepath.Join(t.TempDir(), "mutated.ndjson")
	if err := os.WriteFile(mutated, bytes.Replace(raw, []byte(sent), []byte(`{"kind":"send","at_ns":21597797,`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	clean := filepath.Join(fixtures, "capture_node3.ndjson")

	var out bytes.Buffer
	err = runConform([]string{mutated, clean}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 of 2 captures diverge") {
		t.Errorf("runConform error = %v, want 1 of 2 captures reported divergent", err)
	}
	want := mutated + `: node 0 DIVERGES: 27 sends, 15 events, 0 recoveries (0 expedited), completed=true
  record 0:
  capture: send at=21597797 data=01030000010200c8b9cc140000
  replay:  send at=21597796 data=01030000010200c8b9cc140000
` + clean + ": node 3 CONFORMS: 13 sends, 19 events, 3 recoveries (1 expedited), completed=true\n"
	if out.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestConformRejectsBadInput: no arguments, a missing file and a file
// that is not a capture are errors, not verdicts.
func TestConformRejectsBadInput(t *testing.T) {
	garbage := filepath.Join(t.TempDir(), "garbage.ndjson")
	if err := os.WriteFile(garbage, []byte("not a capture\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, paths := range map[string][]string{
		"no captures":   nil,
		"missing file":  {filepath.Join(t.TempDir(), "absent.ndjson")},
		"not a capture": {garbage},
	} {
		var out bytes.Buffer
		if err := runConform(paths, &out); err == nil {
			t.Errorf("%s: runConform succeeded, printing %q", name, out.String())
		}
	}
}

// TestRunRefusesBadInvocations: each malformed invocation exits non-zero
// with a message on stderr, before any socket is bound or stream run.
func TestRunRefusesBadInvocations(t *testing.T) {
	tree := filepath.Join(t.TempDir(), "tree.txt")
	if err := os.WriteFile(tree, []byte("-1 0 0 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"unknown mode", []string{"-mode", "relay"}, 2, `unknown mode "relay"`},
		{"unknown flag", []string{"-replay", "x"}, 2, "flag provided but not defined"},
		{"node without -tree", []string{"-id", "3"}, 1, "node mode requires -tree"},
		{"missing tree file", []string{"-tree", filepath.Join(t.TempDir(), "absent.txt"), "-id", "3"}, 1, "absent.txt"},
		{"bad -distance", []string{"-tree", tree, "-id", "3", "-distance", "gps"}, 1, `unknown distance mode "gps"`},
		{"malformed -peers", []string{"-tree", tree, "-id", "3", "-peers", "0=127.0.0.1:7100,3"}, 1, `peer entry "3" is not id=host:port`},
		{"bad -peers id", []string{"-tree", tree, "-id", "3", "-peers", "x=127.0.0.1:7100"}, 1, "bad node id"},
		{"proxy without -peers", []string{"-mode", "proxy"}, 1, "proxy mode requires -peers"},
		{"proxy with malformed -peers", []string{"-mode", "proxy", "-peers", "0=127.0.0.1:7100,0=127.0.0.1:7101"}, 1, "duplicate peer entry for node 0"},
		{"conform without captures", []string{"-mode", "conform"}, 1, "conform mode requires capture files"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code || !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d and %q", c.name, code, stderr.String(), c.code, c.msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %q to stdout", c.name, stdout.String())
		}
	}
}
