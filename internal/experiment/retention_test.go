package experiment

import (
	"runtime"
	"testing"
	"time"

	"cesrm/internal/lossinfer"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/trace"
)

// collected reports whether a garbage collection finalizes the object
// whose finalizer closes done. Finalizers run on their
// own goroutine after the cycle that found the object dead, so each
// cycle is followed by a bounded wait on the channel.
func collected(done <-chan struct{}) bool {
	for i := 0; i < 5; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(200 * time.Millisecond):
		}
	}
	return false
}

// watchNetworks arms the networkBuilt seam: for every network a run
// builds, the returned list gains a channel that closes once that
// network is garbage. The network itself cannot carry the finalizer — it
// sits on a cycle (network → hosts → agents → network), and the runtime
// never finalizes an object reachable from itself — so each network is
// given a sentinel only it references: a jitter RNG at zero magnitude,
// which EnableJitter documents as drawing nothing.
func watchNetworks(t *testing.T) *[]chan struct{} {
	t.Helper()
	var dead []chan struct{}
	networkBuilt = func(n *netsim.Network, _ *lossModel) {
		done := make(chan struct{})
		dead = append(dead, done)
		sentinel := sim.NewRNG(0)
		runtime.SetFinalizer(sentinel, func(*sim.RNG) { close(done) })
		n.EnableJitter(sentinel, 0)
	}
	t.Cleanup(func() { networkBuilt = nil })
	return &dead
}

// TestRunResultDoesNotRetainNetwork pins the fix for the suite's
// retention leak: RunResult.RTT (and the collector's streaming basis,
// with release on) used to close over the run's *netsim.Network, keeping
// every host, agent, arena and loss table alive for as long as the
// result was — and Suite.Run holds all 28 results. Holding only the
// result, the network must be collectable.
func TestRunResultDoesNotRetainNetwork(t *testing.T) {
	tr, err := trace.Catalog[12].Load(0.01)
	if err != nil {
		t.Fatal(err)
	}
	dead := watchNetworks(t)
	for i, release := range []bool{false, true} {
		res, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 1, ReleaseRecovered: release})
		if err != nil {
			t.Fatal(err)
		}
		if len(*dead) != i+1 {
			t.Fatalf("release=%v: %d networks built so far, want %d", release, len(*dead), i+1)
		}
		if !collected((*dead)[i]) {
			t.Errorf("release=%v: the RunResult keeps its network reachable", release)
		}
		// The result must still answer from its own snapshot.
		r := res.Receivers[0]
		if res.RTT(r) <= 0 {
			t.Errorf("release=%v: RTT(%d) = %v after the network is gone", release, r, res.RTT(r))
		}
		if got := res.Collector.OverallNormalized(res.RTT); got.Count == 0 {
			t.Errorf("release=%v: no normalized recoveries from the retained result", release)
		}
	}
}

// TestRunPairFreesSRMNetworkBeforeCESRMRuns: by the time RunPair builds
// the CESRM run's network, the finished SRM run's must be garbage.
func TestRunPairFreesSRMNetworkBeforeCESRMRuns(t *testing.T) {
	tr, err := trace.Catalog[12].Load(0.01)
	if err != nil {
		t.Fatal(err)
	}
	dead := watchNetworks(t)
	arm := networkBuilt
	srmFreed := false
	networkBuilt = func(n *netsim.Network, lm *lossModel) {
		if len(*dead) == 1 {
			srmFreed = collected((*dead)[0])
		}
		arm(n, lm)
	}
	if _, err := RunPair(tr, RunConfig{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if len(*dead) != 2 {
		t.Fatalf("RunPair built %d networks, want 2", len(*dead))
	}
	if !srmFreed {
		t.Error("the SRM run's network is still reachable while the CESRM run starts")
	}
}

// TestRunPairDoesNotRetainInference: the link attribution is a slice
// header per packet, and Suite.Run keeps every Pair, so a Pair that held
// the *lossinfer.Result would be the network leak over again. Holding
// only the pair — which still answers §4.2 from the three numbers it
// recorded — the one attribution both runs shared must be collectable.
func TestRunPairDoesNotRetainInference(t *testing.T) {
	tr, err := trace.Catalog[12].Load(0.01)
	if err != nil {
		t.Fatal(err)
	}
	var dead []chan struct{}
	inferenceBuilt = func(r *lossinfer.Result) {
		done := make(chan struct{})
		dead = append(dead, done)
		runtime.SetFinalizer(r, func(*lossinfer.Result) { close(done) })
	}
	t.Cleanup(func() { inferenceBuilt = nil })
	pair, err := RunPair(tr, RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 {
		t.Fatalf("RunPair inferred %d times, want once for both runs", len(dead))
	}
	if !collected(dead[0]) {
		t.Error("the Pair keeps the link attribution reachable")
	}
	if pair.Confidence95 <= 0 || pair.Confidence98 > pair.Confidence95 || pair.GroundTruthAccuracy <= 0 {
		t.Errorf("§4.2 statistics not recorded: >0.95 %v, >0.98 %v, ground truth %v",
			pair.Confidence95, pair.Confidence98, pair.GroundTruthAccuracy)
	}
	if pair.SRM.InferenceConfidence95 != pair.Confidence95 || len(pair.CESRM.InferredRates) != tr.Tree.NumLinks() {
		t.Error("the runs do not report the shared attribution's statistics")
	}
}
