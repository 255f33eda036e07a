package experiment

import (
	"regexp"
	"runtime"
	"testing"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/topology"
)

// crashyConfig returns a representative config exercising every
// nondeterminism-prone runner path: crashes (two at the same instant,
// dispatched in spec order) and delivery jitter (a shared jitter RNG
// consumed in delivery order).
func crashyConfig(tb testing.TB, proto Protocol, seed int64) RunConfig {
	tb.Helper()
	tr := smallTrace(tb, 11)
	recv := tr.Tree.Receivers()
	return RunConfig{
		Trace:    tr,
		Protocol: proto,
		Seed:     seed,
		Jitter:   2 * time.Millisecond,
		Chaos: &chaos.Spec{Name: "crashes", Faults: []chaos.Fault{
			{Kind: chaos.Crash, At: 40 * time.Second, Host: recv[1]},
			{Kind: chaos.Crash, At: 40 * time.Second, Host: recv[5]}, // same instant as recv[1]
			{Kind: chaos.Crash, At: 70 * time.Second, Host: recv[3]},
		}},
	}
}

func TestFingerprintFormat(t *testing.T) {
	res, err := Run(RunConfig{Trace: smallTrace(t, 1), Protocol: SRM, Seed: 1, KeepEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := regexp.MatchString(`^v2:[0-9a-f]{32}$`, res.Fingerprint); !ok {
		t.Fatalf("fingerprint %q does not match v2:<32 hex chars>", res.Fingerprint)
	}
	if len(res.Events) == 0 {
		t.Fatal("run captured no protocol events")
	}
}

func TestFingerprintStableAcrossRepeatedRuns(t *testing.T) {
	// Acceptance: the same RunConfig — crashes and jitter enabled — run
	// 5 times in one process yields identical fingerprints, for every
	// protocol.
	for _, proto := range []Protocol{SRM, CESRM, LMS} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			cfg := crashyConfig(t, proto, 42)
			base, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				r, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r.Fingerprint != base.Fingerprint {
					t.Fatalf("run %d fingerprint %s != first run's %s", i+2, r.Fingerprint, base.Fingerprint)
				}
			}
		})
	}
}

func TestFingerprintSensitiveToConfig(t *testing.T) {
	tr := smallTrace(t, 1)
	a, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Fatal("different seeds produced the same fingerprint")
	}
	c, err := Run(RunConfig{Trace: tr, Protocol: SRM, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == c.Fingerprint {
		t.Fatal("different protocols produced the same fingerprint")
	}
}

func TestVerifyDeterminismPasses(t *testing.T) {
	res, err := VerifyDeterminism(crashyConfig(t, CESRM, 7), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Fingerprint == "" {
		t.Fatal("VerifyDeterminism returned no result")
	}
}

func TestSuiteFingerprintsIdenticalSerialAndParallel(t *testing.T) {
	// Acceptance: fingerprints agree between Suite.Parallel = 1 and
	// Suite.Parallel = NumCPU, proving the fan-out cannot perturb runs.
	run := func(parallel int) []SuiteResult {
		t.Helper()
		s := Suite{Scale: 0.005, Seed: 1, Traces: []int{4, 13}, Parallel: parallel}
		results, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	serial := run(1)
	parallel := run(runtime.NumCPU())
	for i := range serial {
		s, p := serial[i].Pair, parallel[i].Pair
		if s.SRM.Fingerprint == "" || s.CESRM.Fingerprint == "" {
			t.Fatalf("trace %d: empty fingerprint in suite result", serial[i].Entry.Index)
		}
		if s.SRM.Fingerprint != p.SRM.Fingerprint {
			t.Errorf("trace %d: SRM fingerprint diverged serial vs parallel", serial[i].Entry.Index)
		}
		if s.CESRM.Fingerprint != p.CESRM.Fingerprint {
			t.Errorf("trace %d: CESRM fingerprint diverged serial vs parallel", serial[i].Entry.Index)
		}
	}
}

// reorderHosts reverses a host slice without mutating the original.
func reorderHosts(hosts []topology.NodeID) []topology.NodeID {
	out := append([]topology.NodeID(nil), hosts...)
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func TestAuditCatchesMapOrderedScheduling(t *testing.T) {
	// Reenact the historical bug: before this PR, Stage 4 iterated Go
	// maps, so the host order feeding event scheduling varied per
	// process run. The agentOrder seam injects exactly that failure mode
	// (a different host order on every Run call) and the fingerprint
	// audit must flag it.
	cfg := crashyConfig(t, CESRM, 42)

	agentOrder = reorderHosts
	reversed, err := Run(cfg)
	agentOrder = nil
	if err != nil {
		t.Fatal(err)
	}
	straight, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reversed.Fingerprint == straight.Fingerprint {
		t.Fatal("fingerprint blind to host-order-dependent scheduling")
	}

	// And end to end: VerifyDeterminism must fail when the order varies
	// per run, exactly as map iteration made it.
	flip := false
	agentOrder = func(hosts []topology.NodeID) []topology.NodeID {
		flip = !flip
		if flip {
			return hosts
		}
		return reorderHosts(hosts)
	}
	defer func() { agentOrder = nil }()
	if _, err := VerifyDeterminism(cfg, 1); err == nil {
		t.Fatal("VerifyDeterminism passed under map-order-like scheduling")
	}
}
