package main

import (
	"os"
	"path/filepath"
	"testing"
)

// write drops a snapshot file and returns its path.
func write(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const committedBody = `{
  "seed": 1, "fingerprint_version": "v1",
  "runs": [{
    "scale": 0.01,
    "perf": {"suite_elapsed_ns": 1000000000, "parallel": 1},
    "traces": [
      {"index": 1, "name": "A", "srm_fingerprint": "v1:aa", "cesrm_fingerprint": "v1:bb", "wall_ns": 500},
      {"index": 2, "name": "B", "srm_fingerprint": "v1:cc", "cesrm_fingerprint": "v1:dd", "wall_ns": 500}
    ]
  }]
}`

func freshBody(elapsed int64, srm1 string) string {
	return `{
  "seed": 1, "fingerprint_version": "v1",
  "runs": [{
    "scale": 0.01,
    "perf": {"suite_elapsed_ns": ` + itoa(elapsed) + `, "parallel": 1},
    "traces": [
      {"index": 1, "name": "A", "srm_fingerprint": "` + srm1 + `", "cesrm_fingerprint": "v1:bb", "wall_ns": 600},
      {"index": 2, "name": "B", "srm_fingerprint": "v1:cc", "cesrm_fingerprint": "v1:dd", "wall_ns": 600}
    ]
  }]
}`
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestPassWithinBudget(t *testing.T) {
	c := write(t, "committed.json", committedBody)
	f := write(t, "fresh.json", freshBody(1_200_000_000, "v1:aa")) // +20% < 25%
	if err := run([]string{"-committed", c, "-fresh", f}); err != nil {
		t.Fatalf("within-budget comparison failed: %v", err)
	}
}

func TestFailOnWallTimeRegression(t *testing.T) {
	c := write(t, "committed.json", committedBody)
	f := write(t, "fresh.json", freshBody(1_300_000_000, "v1:aa")) // +30% > 25%
	if err := run([]string{"-committed", c, "-fresh", f}); err == nil {
		t.Fatal("30% wall-time regression passed a 25% gate")
	}
	// A looser explicit budget admits the same pair.
	if err := run([]string{"-committed", c, "-fresh", f, "-max-regression-pct", "50"}); err != nil {
		t.Fatalf("regression within explicit 50%% budget failed: %v", err)
	}
}

func TestFailOnFingerprintMismatch(t *testing.T) {
	c := write(t, "committed.json", committedBody)
	f := write(t, "fresh.json", freshBody(1_000_000_000, "v1:ee"))
	if err := run([]string{"-committed", c, "-fresh", f}); err == nil {
		t.Fatal("diverging fingerprint passed")
	}
	if err := run([]string{"-committed", c, "-fresh", f, "-ignore-fingerprints"}); err != nil {
		t.Fatalf("-ignore-fingerprints still failed: %v", err)
	}
}

func TestWallGateSkippedAcrossDispatchConfigs(t *testing.T) {
	c := write(t, "committed.json", committedBody) // no shards/gomaxprocs: serial, unknown cores
	sharded := `{
  "seed": 1, "fingerprint_version": "v1",
  "runs": [{
    "scale": 0.01,
    "perf": {"suite_elapsed_ns": 9000000000, "parallel": 1, "shards": 8, "gomaxprocs": 8, "repeats": 3},
    "traces": [
      {"index": 1, "name": "A", "srm_fingerprint": "v1:aa", "cesrm_fingerprint": "v1:bb", "wall_ns": 600},
      {"index": 2, "name": "B", "srm_fingerprint": "v1:cc", "cesrm_fingerprint": "v1:dd", "wall_ns": 600}
    ]
  }]
}`
	f := write(t, "fresh.json", sharded)
	// 9x the committed wall time, but under shards=8 vs serial: the wall
	// gate must not fire because the runs measure different executions.
	if err := run([]string{"-committed", c, "-fresh", f}); err != nil {
		t.Fatalf("cross-config wall comparison gated: %v", err)
	}
	// Same sharded config on both sides gates again.
	c2 := write(t, "committed2.json", sharded)
	slow := `{
  "seed": 1, "fingerprint_version": "v1",
  "runs": [{
    "scale": 0.01,
    "perf": {"suite_elapsed_ns": 18000000000, "parallel": 1, "shards": 8, "gomaxprocs": 8, "repeats": 3},
    "traces": [
      {"index": 1, "name": "A", "srm_fingerprint": "v1:aa", "cesrm_fingerprint": "v1:bb", "wall_ns": 600},
      {"index": 2, "name": "B", "srm_fingerprint": "v1:cc", "cesrm_fingerprint": "v1:dd", "wall_ns": 600}
    ]
  }]
}`
	f2 := write(t, "fresh2.json", slow)
	if err := run([]string{"-committed", c2, "-fresh", f2}); err == nil {
		t.Fatal("100% regression under matching sharded configs passed")
	}
}

func TestRejectsDisjointScalesAndSeeds(t *testing.T) {
	c := write(t, "committed.json", committedBody)
	other := `{
  "seed": 1, "fingerprint_version": "v1",
  "runs": [{"scale": 0.1, "perf": {"suite_elapsed_ns": 1}, "traces": [
    {"index": 1, "name": "A", "srm_fingerprint": "v1:aa", "cesrm_fingerprint": "v1:bb"}]}]
}`
	f := write(t, "fresh.json", other)
	if err := run([]string{"-committed", c, "-fresh", f}); err == nil {
		t.Fatal("disjoint scales passed")
	}
	seed2 := write(t, "seed2.json", `{
  "seed": 2, "fingerprint_version": "v1",
  "runs": [{"scale": 0.01, "perf": {"suite_elapsed_ns": 1}, "traces": [
    {"index": 1, "name": "A", "srm_fingerprint": "v1:aa", "cesrm_fingerprint": "v1:bb"}]}]
}`)
	if err := run([]string{"-committed", c, "-fresh", seed2}); err == nil {
		t.Fatal("mismatched seeds passed")
	}
}
