package experiment

import (
	"fmt"
	"testing"

	"cesrm/internal/chaos"
	"cesrm/internal/sim"
)

// TestShardedFingerprintEquality pins the tentpole contract: a sharded
// run is byte-identical to the serial run, for every protocol and for
// shard counts below, at and above the subtree count.
func TestShardedFingerprintEquality(t *testing.T) {
	tr := smallTrace(t, 99)
	for _, p := range []Protocol{SRM, CESRM, LMS} {
		serial, err := Run(RunConfig{Trace: tr, Protocol: p, Seed: 123})
		if err != nil {
			t.Fatalf("%v serial: %v", p, err)
		}
		for _, shards := range []int{2, 4, 16} {
			res, err := Run(RunConfig{Trace: tr, Protocol: p, Seed: 123, Shards: shards})
			if err != nil {
				t.Fatalf("%v shards=%d: %v", p, shards, err)
			}
			if res.Fingerprint != serial.Fingerprint {
				t.Errorf("%v shards=%d fingerprint diverged:\n got  %s\n want %s",
					p, shards, res.Fingerprint, serial.Fingerprint)
			}
			if res.FinishedAt != serial.FinishedAt {
				t.Errorf("%v shards=%d finish time diverged: got %v want %v",
					p, shards, res.FinishedAt, serial.FinishedAt)
			}
		}
	}
}

// TestShardedGoldenFingerprints proves sharded runs reproduce the pinned
// serial goldens exactly — not just self-consistency.
func TestShardedGoldenFingerprints(t *testing.T) {
	tr := smallTrace(t, 99)
	for p, fp := range goldenFingerprints {
		res, err := Run(RunConfig{Trace: tr, Protocol: p, Seed: 123, Shards: 8})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Fingerprint != fp {
			t.Errorf("%v sharded fingerprint drifted from golden:\n got  %s\n want %s",
				p, res.Fingerprint, fp)
		}
	}
}

// TestShardedWithFeatures covers the feature axes that interact with
// deferred dispatch: jitter (net RNG draws at merge), released state,
// lossy recovery (drop RNG draws per crossing) and fail-stop crashes.
func TestShardedWithFeatures(t *testing.T) {
	tr := smallTrace(t, 7)
	base := RunConfig{Trace: tr, Protocol: CESRM, Seed: 55, LossyRecovery: true, ReleaseRecovered: true}
	serial, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Shards = 4
	res, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != serial.Fingerprint {
		t.Errorf("lossy+release sharded fingerprint diverged:\n got  %s\n want %s",
			res.Fingerprint, serial.Fingerprint)
	}
}

// TestShardedChaosEquality runs a restart-bearing chaos spec sharded and
// serial; chaos faults are global (barrier) events, so equality must
// hold under them too.
func TestShardedChaosEquality(t *testing.T) {
	tr := smallTrace(t, 3)
	victim := tr.Tree.Receivers()[0]
	spec, err := chaos.ParseSpec(fmt.Sprintf("crash@20s:host=%d;restart@40s:host=%d", victim, victim))
	if err != nil {
		t.Fatal(err)
	}
	base := RunConfig{Trace: tr, Protocol: SRM, Seed: 11, Chaos: spec}
	serial, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Shards = 4
	res, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != serial.Fingerprint {
		t.Errorf("chaos sharded fingerprint diverged:\n got  %s\n want %s",
			res.Fingerprint, serial.Fingerprint)
	}
}

// TestShardedBudgetAbort pins the guardrail semantics under parallel
// dispatch: both serial and sharded runs abort on the event budget,
// and each aborts deterministically across reruns. The abort clocks
// are not compared across configs: hop-cohort delivery groups split at
// shard boundaries, so a sharded run dispatches more (smaller) events
// than serial and burns the budget at a different virtual time. Event
// budgets are comparable only between identical configurations.
func TestShardedBudgetAbort(t *testing.T) {
	tr := smallTrace(t, 99)
	base := RunConfig{Trace: tr, Protocol: SRM, Seed: 123,
		Budget: sim.Budget{MaxEvents: 5_000}}
	serial, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Status != sim.EventBudgetExceeded {
		t.Fatalf("serial status = %v, want EventBudgetExceeded", serial.Status)
	}
	serial2, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if serial2.Fingerprint != serial.Fingerprint || serial2.FinishedAt != serial.FinishedAt {
		t.Errorf("serial budget abort not deterministic: %s@%v vs %s@%v",
			serial.Fingerprint, serial.FinishedAt, serial2.Fingerprint, serial2.FinishedAt)
	}
	sharded := base
	sharded.Shards = 4
	first, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != sim.EventBudgetExceeded {
		t.Fatalf("sharded status = %v, want EventBudgetExceeded", first.Status)
	}
	second, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if second.Fingerprint != first.Fingerprint || second.FinishedAt != first.FinishedAt {
		t.Errorf("sharded budget abort not deterministic: %s@%v vs %s@%v",
			first.Fingerprint, first.FinishedAt, second.Fingerprint, second.FinishedAt)
	}
}

// TestShardedBarrierEventsDrop pins the ROADMAP item-2 remainder:
// per-packet source transmit events carry the source's shard label
// instead of dispatching as GlobalShard barriers, so a sharded run's
// barrier count stays far below the packet count (every transmit used
// to be a barrier) while the fingerprint remains byte-identical to
// serial. The residual barriers are the session-cadence completion
// monitor (it inspects every host) and nothing proportional to traffic.
func TestShardedBarrierEventsDrop(t *testing.T) {
	tr := smallTrace(t, 99)
	base := RunConfig{Trace: tr, Protocol: SRM, Seed: 123}
	serial, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if serial.BarrierEvents != 0 {
		t.Fatalf("serial run counted %d barrier events, want 0", serial.BarrierEvents)
	}
	sharded := base
	sharded.Shards = 4
	res, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != serial.Fingerprint {
		t.Fatalf("sharded fingerprint diverged:\n got  %s\n want %s", res.Fingerprint, serial.Fingerprint)
	}
	numPackets := uint64(tr.NumPackets())
	if res.BarrierEvents == 0 {
		t.Fatal("sharded run counted no barrier events; the monitor should still be one")
	}
	if res.BarrierEvents >= numPackets/2 {
		t.Errorf("sharded run dispatched %d barrier events for %d packets; transmits are serializing again",
			res.BarrierEvents, numPackets)
	}
}

// TestShardedPlanCacheCounters sanity-checks the plumbing end to end:
// a sharded run reports plan cache activity with a high hit rate.
func TestShardedPlanCacheCounters(t *testing.T) {
	tr := smallTrace(t, 99)
	res, err := Run(RunConfig{Trace: tr, Protocol: SRM, Seed: 123, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanStats.Hits == 0 || res.PlanStats.Misses == 0 {
		t.Fatalf("run reported no plan cache activity: %+v", res.PlanStats)
	}
	if res.PlanStats.Hits < 10*res.PlanStats.Misses {
		t.Errorf("plan hit rate unexpectedly low: %+v", res.PlanStats)
	}
}
