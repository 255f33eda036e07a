package soak

import (
	"testing"

	"cesrm/internal/chaos"
	"cesrm/internal/experiment"
	"cesrm/internal/sim"
)

// TestReleaseInertUnderChurn is the generated half of the churn-sound
// watermark's contract (the fixed half is
// experiment.TestMembershipChurnReleaseInert): over random trials that
// contain leaves or joins and no restart — mixed with whatever crashes,
// link flaps, jitter, duplicate storms, starvation and queue caps the
// generator dealt — the run with release on ends exactly as the run with
// release off does, status and fingerprint, and really did release (peak
// live collector cells under half the retained run's). The
// deal must include a late joiner, a leave for good and a queue cap
// (asserted below).
func TestReleaseInertUnderChurn(t *testing.T) {
	const perScale = 20
	protocols := []experiment.Protocol{experiment.SRM, experiment.CESRM, experiment.LMS}
	budget := DefaultBudget()
	var trials, lateJoiners, goneForGood, queueCaps int
	for i, scale := range []float64{0.01, 0.03, 0.05} {
		gen, err := NewGenerator(int64(1901+i), []int{4, 12, 13}, protocols, scale)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < perScale; {
			trial, err := gen.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !trial.Spec.HasMembership() || trial.Spec.HasRestart() {
				continue
			}
			n++
			trials++
			if len(trial.Spec.InitialAbsent()) > 0 {
				lateJoiners++
			}
			if leavesForGood(trial.Spec) {
				goneForGood++
			}
			if trial.Spec.HasQueueCap() {
				queueCaps++
			}
			tr, err := gen.loader.load(trial.TraceIndex, trial.Scale)
			if err != nil {
				t.Fatal(err)
			}
			cfg := experiment.RunConfig{
				Trace:    tr,
				Protocol: trial.Protocol,
				Chaos:    trial.Spec,
				Budget:   budget,
				Seed:     trial.Seed,
			}
			off, err := experiment.Run(cfg)
			if err != nil {
				t.Fatalf("trial %v, release off: %v", trial, err)
			}
			cfg.ReleaseRecovered = true
			on, err := experiment.Run(cfg)
			if err != nil {
				t.Fatalf("trial %v, release on: %v", trial, err)
			}
			if on.Status != off.Status || on.Fingerprint != off.Fingerprint {
				t.Fatalf("trial %v: release changed the run:\n on  %v %s\n off %v %s",
					trial, on.Status, on.Fingerprint, off.Status, off.Fingerprint)
			}
			if off.Status != sim.Completed {
				continue
			}
			// Trace 4 at scale 0.01 is 176 packets, 14 s: the two-tick lag
			// and one recovery are most of the stream, so there the
			// peak is only required not to exceed the retained run's.
			peak, total := on.AuditCells, off.AuditCells
			if peak > total || (tr.NumPackets() >= 350 && peak >= total/2) {
				t.Fatalf("trial %v: did not release: peak cells %d vs retained %d over %d packets",
					trial, peak, total, tr.NumPackets())
			}
		}
	}
	if lateJoiners == 0 || goneForGood == 0 || queueCaps == 0 {
		t.Fatalf("%d churn trials dealt %d late joiners, %d leaves for good, %d queue caps; the contract has a coverage hole",
			trials, lateJoiners, goneForGood, queueCaps)
	}
}

// leavesForGood reports whether some host's last membership fault is a
// Leave.
func leavesForGood(s *chaos.Spec) bool {
	last := map[int]chaos.Fault{}
	for _, f := range s.Faults {
		if f.Kind != chaos.Leave && f.Kind != chaos.Join {
			continue
		}
		if prev, ok := last[int(f.Host)]; !ok || f.At >= prev.At {
			last[int(f.Host)] = f
		}
	}
	for _, f := range last {
		if f.Kind == chaos.Leave {
			return true
		}
	}
	return false
}
