package experiment

import (
	"testing"
	"time"

	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// TestLargeTreeBeyondHopMatrix runs a tree of over 1,024 nodes, where a
// pairwise hop matrix would cost megabytes, end to end at four-digit
// host counts; Run itself verifies full reliability and the validator's
// invariants. Every host floods
// (sessions alone see to that), and at the default plan budget every
// origin's cohorts must stay resident: the group is the shape of the
// benchmark's cache_overflow workload.
func TestLargeTreeBeyondHopMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates ~1100 hosts")
	}
	tr, err := trace.Generate(trace.GenSpec{
		Name:         "wide1100",
		Topology:     topology.GenSpec{Receivers: 1100, Depth: 6},
		NumPackets:   30,
		Period:       40 * time.Millisecond,
		TargetLosses: 800,
		Seed:         63,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.Tree.NumNodes(); n <= 1024 {
		t.Fatalf("tree has %d nodes, want > 1024", n)
	}
	res, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint == "" {
		t.Fatal("empty fingerprint")
	}
	if ps := res.PlanStats; ps.Evictions != 0 || ps.Refused != 0 || ps.Misses < uint64(tr.Tree.NumReceivers()) {
		t.Fatalf("plan cache counters %+v, want every origin compiled once and kept", ps)
	}
}
