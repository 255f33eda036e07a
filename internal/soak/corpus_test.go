package soak

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/experiment"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

func TestCorpusEntryRoundTrip(t *testing.T) {
	e := &Entry{
		Trace:    "WRN950919",
		Protocol: experiment.CESRM,
		Scale:    0.01,
		Seed:     42,
		Class:    "invariant:crash-silence",
		Note:     []string{"first line", "second line"},
		Spec: &chaos.Spec{Name: "custom", Faults: []chaos.Fault{
			{Kind: chaos.Crash, At: 4 * time.Second, Host: 5, Purge: true,
				Link: topology.LinkID(topology.None)},
			{Kind: chaos.Duplicate, At: 6 * time.Second, Until: 9 * time.Second,
				Prob: 0.125, Delay: 2 * time.Millisecond,
				Host: topology.None, Link: topology.LinkID(topology.None)},
		}},
	}
	again, err := ParseEntry(e.Marshal())
	if err != nil {
		t.Fatalf("parsing %q: %v", e.Marshal(), err)
	}
	// Spec names are not persisted; compare faults and scalar fields.
	if !reflect.DeepEqual(e.Spec.Faults, again.Spec.Faults) {
		t.Fatalf("faults diverged:\n  %+v\n  %+v", e.Spec.Faults, again.Spec.Faults)
	}
	e.Spec, again.Spec = nil, nil
	if !reflect.DeepEqual(e, again) {
		t.Fatalf("entries diverged:\n  %+v\n  %+v", e, again)
	}
}

func TestParseEntryRejectsBadInput(t *testing.T) {
	cases := []struct {
		text string
		want string
	}{
		{"", "missing trace"},
		{"trace = X\nspec = crash@1s:host=4\n", "missing protocol"},
		{"trace = X\nprotocol = CESRM\n", "missing spec"},
		{"trace = X\nprotocol = WARP\nspec = crash@1s:host=4\n", "unknown protocol"},
		{"trace = X\nprotocol = CESRM\nscale = 3\nspec = crash@1s:host=4\n", "out of (0, 1]"},
		{"trace = X\ntrace = Y\nprotocol = CESRM\nspec = crash@1s:host=4\n", "duplicate key"},
		{"garbage\n", "no '='"},
		{"frob = 1\n", "unknown key"},
		{"trace = X\nprotocol = CESRM\nspec = crash@1s:host=-4\n", "negative host"},
	}
	for _, c := range cases {
		_, err := ParseEntry([]byte(c.text))
		if err == nil {
			t.Errorf("ParseEntry(%q) accepted", c.text)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseEntry(%q) error %q, want substring %q", c.text, err, c.want)
		}
	}
}

// repoCorpusDir is the committed corpus, relative to this package.
const repoCorpusDir = "../../testdata/soak-corpus"

// TestCommittedCorpusReplays is the acceptance test for the replayable
// corpus: every committed entry must terminate with a structured
// TerminationStatus — never a panic, never a hang past the guardrails —
// and no entry may exhibit a fatal failure (invariant violation,
// panic, quiesce timeout) on the current tree. In particular the PR 4
// clock-overflow scenario, which once looped the virtual clock to
// int64 overflow, now replays to clean completion.
func TestCommittedCorpusReplays(t *testing.T) {
	r := NewRunner(DefaultBudget())
	outcomes, err := r.ReplayDir(repoCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, o := range outcomes {
		name := filepath.Base(o.Path)
		seen[name] = true
		if o.Failure != nil && o.Failure.Fatal() {
			t.Errorf("%s: fatal failure %s: %s", name, o.Failure.Class, o.Failure.Detail)
			continue
		}
		if o.Result == nil {
			t.Errorf("%s: replay produced no result", name)
			continue
		}
		if o.Fingerprint == "" {
			t.Errorf("%s: replay has no fingerprint", name)
		}
		switch name {
		case "pr4-clock-overflow.spec":
			if o.Status != sim.Completed {
				t.Errorf("%s: status %v, want Completed (the PR 4 fix)", name, o.Status)
			}
		case "queue-overflow.spec":
			// The congestion entry must actually overflow the finite
			// queue — and every tail-dropped packet must be recovered
			// through the repair machinery, never abandoned.
			if o.Status != sim.Completed {
				t.Errorf("%s: status %v, want Completed", name, o.Status)
			}
			if o.Result.QueueDrops == 0 {
				t.Errorf("%s: replay produced no queue drops", name)
			}
			if o.Result.Abandoned != 0 {
				t.Errorf("%s: %d abandonments; congestion loss must be recovered", name, o.Result.Abandoned)
			}
		case "replier-leave.spec":
			if o.Status != sim.Completed {
				t.Errorf("%s: status %v, want Completed", name, o.Status)
			}
			if o.Result.Abandoned != 0 {
				t.Errorf("%s: %d abandonments after graceful replier departure", name, o.Result.Abandoned)
			}
		case "late-join-floor.spec":
			// Replay runs with release live: the entry must quiesce, and
			// host 5 must chase only what it is owed from its floor on
			// (991 losses; 23,263 — the whole history — before the fix).
			if o.Status != sim.Completed || o.Failure != nil {
				t.Errorf("%s: status %v, failure %v, want clean completion", name, o.Status, o.Failure)
			}
			if n := o.Result.Collector.Losses(5); n == 0 || n >= 1100 {
				t.Errorf("%s: host 5 detected %d losses, want 991: its late-join floor was not applied", name, n)
			}
		}
	}
	for _, want := range []string{"pr4-clock-overflow.spec", "replier-churn.spec", "replier-leave.spec", "queue-overflow.spec", "late-join-floor.spec"} {
		if !seen[want] {
			t.Errorf("committed corpus lacks the seeded %s entry", want)
		}
	}
}

// TestReplayIsDeterministic replays one committed entry twice and
// requires identical fingerprints — corpus entries double as
// regression fingerprint pins.
func TestReplayIsDeterministic(t *testing.T) {
	r := NewRunner(DefaultBudget())
	a, err := r.Replay(filepath.Join(repoCorpusDir, "pr4-clock-overflow.spec"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Replay(filepath.Join(repoCorpusDir, "pr4-clock-overflow.spec"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == "" || a.Fingerprint != b.Fingerprint {
		t.Fatalf("replay fingerprints diverged: %q vs %q", a.Fingerprint, b.Fingerprint)
	}
}
