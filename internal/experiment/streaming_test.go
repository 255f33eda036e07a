package experiment

import (
	"fmt"
	"strings"
	"testing"

	"cesrm/internal/chaos"
)

// TestKeepEventsControlsRetention checks event retention is decided
// inside the run: by default the recorder streams events into the
// digest without materializing them, and only KeepEvents builds the
// timeline.
func TestKeepEventsControlsRetention(t *testing.T) {
	tr := smallTrace(t, 7)
	off, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if off.Events != nil {
		t.Fatalf("default run retained %d events, want nil", len(off.Events))
	}
	on, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 5, KeepEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(on.Events) == 0 {
		t.Fatal("KeepEvents run retained no events")
	}
	// Retention must not perturb the run itself.
	if off.Fingerprint != on.Fingerprint {
		t.Fatalf("retention changed the fingerprint: %s != %s", off.Fingerprint, on.Fingerprint)
	}
}

// TestReleaseRecoveredIsFingerprintInert is the watermark release's
// acceptance gate: releasing fully-recovered per-packet state mid-run
// must not change a single event, the finish time or any digested
// metric — the fingerprint is byte-identical with release on or off —
// while the peak number of live per-packet cells stays well below the
// run's total, proving state really was discarded mid-run. The lossy
// case adds recovery traffic that is itself dropped, so losses stay
// outstanding across more release ticks.
func TestReleaseRecoveredIsFingerprintInert(t *testing.T) {
	tr := smallTrace(t, 31)
	cases := []struct {
		name string
		base RunConfig
	}{
		{"SRM", RunConfig{Protocol: SRM}},
		{"CESRM", RunConfig{Protocol: CESRM}},
		{"LMS", RunConfig{Protocol: LMS}},
		{"CESRM-lossy", RunConfig{Protocol: CESRM, LossyRecovery: true}},
	}
	for _, c := range cases {
		cfg := c.base
		cfg.Trace, cfg.Seed = tr, 17
		t.Run(c.name, func(t *testing.T) {
			off, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.ReleaseRecovered = true
			on, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if on.Fingerprint != off.Fingerprint {
				t.Fatalf("release changed the fingerprint:\n on  %s\n off %s", on.Fingerprint, off.Fingerprint)
			}
			// The trace has 2000 packets across 8 receivers plus the source;
			// without release the validator's audit table grows one cell
			// per (host, lost-or-recovered packet). With release the peak
			// must be bounded by the recovery horizon, far below the total.
			peak, total := on.AuditCells, off.AuditCells
			if peak == 0 {
				t.Fatal("release-on run recorded no per-packet cells")
			}
			if peak >= total/2 {
				t.Fatalf("release-on peak cells %d not meaningfully below release-off %d", peak, total)
			}
		})
	}
}

// TestCrashOnlyChaosReleaseInert pins the narrowed release gate: a
// crash-only chaos spec (no restart) releases recovered state mid-run —
// peak live cells stay well below the retained run's — while the
// fingerprint is byte-identical with release on or off. A spec
// containing a restart must keep the gate closed: a restarted host
// re-recovers everything, so nothing may be discarded.
func TestCrashOnlyChaosReleaseInert(t *testing.T) {
	tr := smallTrace(t, 31)
	victim := tr.Tree.Receivers()[0]
	crashOnly, err := chaos.ParseSpec(fmt.Sprintf("crash@30s:host=%d", victim))
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 17, Chaos: crashOnly})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 17, Chaos: crashOnly, ReleaseRecovered: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Fingerprint != off.Fingerprint {
		t.Fatalf("release under crash-only chaos changed the fingerprint:\n on  %s\n off %s",
			on.Fingerprint, off.Fingerprint)
	}
	peak, total := on.AuditCells, off.AuditCells
	if peak == 0 {
		t.Fatal("release-on run recorded no per-packet cells")
	}
	if peak >= total/2 {
		t.Fatalf("crash-only chaos did not release: peak cells %d vs retained %d", peak, total)
	}

	withRestart, err := chaos.ParseSpec(fmt.Sprintf("crash@30s:host=%d;restart@60s:host=%d", victim, victim))
	if err != nil {
		t.Fatal(err)
	}
	held, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 17, Chaos: withRestart, ReleaseRecovered: true})
	if err != nil {
		t.Fatal(err)
	}
	heldOff, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 17, Chaos: withRestart})
	if err != nil {
		t.Fatal(err)
	}
	if held.AuditCells != heldOff.AuditCells {
		t.Fatalf("restart spec must suppress release: peak %d (release on) vs %d (off)",
			held.AuditCells, heldOff.AuditCells)
	}
}

// TestMembershipChurnReleaseInert pins the gate the churn-sound
// watermark opened: a spec with leaves and joins (and no restart)
// releases recovered state mid-run — peak live cells under half the
// retained run's — and release on ≡ release off in status, fingerprint,
// queue drops and abandonments, for every protocol. A departed host
// does not vote and is not released, a joiner votes 0 until its stream
// opens at its floor, and no floor lies below the released watermark
// (the run would fail with floor-below-release).
func TestMembershipChurnReleaseInert(t *testing.T) {
	tr := smallTrace(t, 31)
	recs := tr.Tree.Receivers()
	a, b := recs[0], recs[len(recs)/2]
	specs := []struct{ name, text string }{
		{"leave-rejoin", fmt.Sprintf("leave@40s:host=%d;join@90s:host=%d", a, a)},
		{"leave-for-good", fmt.Sprintf("leave@50s:host=%d", a)},
		{"late-joiner", fmt.Sprintf("join@70s:host=%d", b)},
		{"overlapping-absences", fmt.Sprintf("leave@30s:host=%d;leave@50s:host=%d;join@80s:host=%d;join@110s:host=%d", a, b, a, b)},
		// The benchmark's congested_churn shape: two receivers leave and
		// come back inside a two-packet queue cap.
		{"churn-under-qcap", fmt.Sprintf("qcap@16s-144s:cap=2;leave@48s:host=%d;join@96s:host=%d;leave@64s:host=%d;join@112s:host=%d", a, a, b, b)},
		{"leave-beside-crash", fmt.Sprintf("leave@40s:host=%d;join@100s:host=%d;crash@60s:host=%d", a, a, b)},
	}
	for _, sc := range specs {
		spec, err := chaos.ParseSpec(sc.text)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Protocol{SRM, CESRM, LMS} {
			t.Run(sc.name+"/"+p.String(), func(t *testing.T) {
				off, err := Run(RunConfig{Trace: tr, Protocol: p, Seed: 17, Chaos: spec})
				if err != nil {
					t.Fatal(err)
				}
				on, err := Run(RunConfig{Trace: tr, Protocol: p, Seed: 17, Chaos: spec, ReleaseRecovered: true})
				if err != nil {
					t.Fatal(err)
				}
				if on.Status != off.Status || on.Fingerprint != off.Fingerprint {
					t.Fatalf("release under churn changed the run:\n on  %v %s\n off %v %s",
						on.Status, on.Fingerprint, off.Status, off.Fingerprint)
				}
				if on.QueueDrops != off.QueueDrops || on.Abandoned != off.Abandoned {
					t.Fatalf("release under churn changed queue drops %d → %d or abandonments %d → %d",
						off.QueueDrops, on.QueueDrops, off.Abandoned, on.Abandoned)
				}
				if strings.Contains(sc.text, "qcap") && on.QueueDrops == 0 {
					t.Fatal("the queue cap never dropped a packet")
				}
				peak, total := on.AuditCells, off.AuditCells
				if peak == 0 || peak >= total/2 {
					t.Fatalf("churn spec did not release: peak cells %d vs retained %d", peak, total)
				}
			})
		}
	}
}
