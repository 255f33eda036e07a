package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"cesrm/internal/topology"
)

//	   0 (source)
//	  / \
//	 1   2
//	/ \   \
//
// 3   4   5
//
//	|
//	6
//
// Receivers: 3, 4, 6.
func testTree(t *testing.T) *topology.Tree {
	t.Helper()
	return topology.MustNew([]topology.NodeID{topology.None, 0, 0, 1, 1, 2, 5})
}

func TestParseSpecRoundTrip(t *testing.T) {
	text := "crash@40s:host=3,purge;restart@1m10s:host=3;link-down@10s-20s:link=5;" +
		"link-down@30s:link=5;link-up@35s:link=5;jitter@45s-50s:max=5ms;" +
		"dup@1m20s-1m30s:prob=0.01,delay=2ms;starve@1m40s-1m45s;starve@1m50s-1m55s:host=4;" +
		"leave@2m:host=4;join@2m30s:host=4;qcap@2m40s-2m50s:cap=2;join@5s:host=6"
	s, err := ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(testTree(t)); err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(s.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", s.String(), err)
	}
	if !reflect.DeepEqual(s.Faults, again.Faults) {
		t.Fatalf("round trip diverged:\n  first:  %+v\n  second: %+v", s.Faults, again.Faults)
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, text := range []string{
		"", "crash", "crash@", "crash@40s:host=x", "explode@40s",
		"crash@40s:frob=1", "jitter@4s-2x:max=1ms", "dup@1s-2s:prob=maybe",
		"crash@40s:purge=yes",
		"qcap@1s-2s:cap=0", "qcap@1s-2s:cap=-3", "qcap@1s-2s:cap=two",
		"leave@1s:cap=2", "join@1s:purge", "qcap@1s-2s:host=3",
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted", text)
		}
	}
}

func TestValidateRejectsIllFormedSpecs(t *testing.T) {
	tree := testTree(t)
	cases := []struct {
		name  string
		spec  Spec
		wants string
	}{
		{"negative instant", Spec{Faults: []Fault{{Kind: Crash, At: -time.Second, Host: 3}}}, "negative instant"},
		{"crash source", Spec{Faults: []Fault{{Kind: Crash, At: time.Second, Host: 0}}}, "not a receiver"},
		{"crash router", Spec{Faults: []Fault{{Kind: Crash, At: time.Second, Host: 1}}}, "not a receiver"},
		{"double crash", Spec{Faults: []Fault{
			{Kind: Crash, At: time.Second, Host: 3},
			{Kind: Crash, At: 2 * time.Second, Host: 3},
		}}, "crashed twice"},
		{"restart live host", Spec{Faults: []Fault{{Kind: Restart, At: time.Second, Host: 3}}}, "restarted while live"},
		{"root link", Spec{Faults: []Fault{{Kind: LinkDown, At: time.Second, Until: 2 * time.Second, Link: 0}}}, "invalid link"},
		{"severed forever", Spec{Faults: []Fault{{Kind: LinkDown, At: time.Second, Link: 5}}}, "severed forever"},
		{"link raised while up", Spec{Faults: []Fault{{Kind: LinkUp, At: time.Second, Link: 5}}}, "raised while up"},
		{"jitter without end", Spec{Faults: []Fault{{Kind: Jitter, At: time.Second, Max: time.Millisecond}}}, "window end"},
		{"inverted window", Spec{Faults: []Fault{{Kind: Jitter, At: 2 * time.Second, Until: time.Second, Max: time.Millisecond}}}, "not after start"},
		{"overlapping jitter", Spec{Faults: []Fault{
			{Kind: Jitter, At: time.Second, Until: 3 * time.Second, Max: time.Millisecond},
			{Kind: Jitter, At: 2 * time.Second, Until: 4 * time.Second, Max: time.Millisecond},
		}}, "overlapping"},
		{"dup prob out of range", Spec{Faults: []Fault{{Kind: Duplicate, At: time.Second, Until: 2 * time.Second, Prob: 1.5}}}, "outside (0,1]"},
		{"starve without end", Spec{Faults: []Fault{{Kind: Starve, At: time.Second, Host: topology.None}}}, "window"},
		{"leave of non-receiver", Spec{Faults: []Fault{{Kind: Leave, At: time.Second, Host: 99}}}, "not a receiver"},
		{"leave of router", Spec{Faults: []Fault{{Kind: Leave, At: time.Second, Host: 1}}}, "not a receiver"},
		{"join while present", Spec{Faults: []Fault{
			{Kind: Leave, At: time.Second, Host: 3},
			{Kind: Join, At: 2 * time.Second, Host: 3},
			{Kind: Join, At: 3 * time.Second, Host: 3},
		}}, "joined while present"},
		{"double leave", Spec{Faults: []Fault{
			{Kind: Leave, At: time.Second, Host: 3},
			{Kind: Leave, At: 2 * time.Second, Host: 3},
		}}, "left while absent"},
		{"leave mixed with crash", Spec{Faults: []Fault{
			{Kind: Crash, At: time.Second, Host: 3},
			{Kind: Restart, At: 2 * time.Second, Host: 3},
			{Kind: Leave, At: 3 * time.Second, Host: 3},
		}}, "mixes crash/restart and leave/join"},
		{"qcap without end", Spec{Faults: []Fault{{Kind: QueueCap, At: time.Second, Cap: 2}}}, "needs an end"},
		{"qcap non-positive", Spec{Faults: []Fault{{Kind: QueueCap, At: time.Second, Until: 2 * time.Second, Cap: 0}}}, "non-positive queue cap"},
		{"overlapping qcap", Spec{Faults: []Fault{
			{Kind: QueueCap, At: time.Second, Until: 3 * time.Second, Cap: 2},
			{Kind: QueueCap, At: 2 * time.Second, Until: 4 * time.Second, Cap: 3},
		}}, "overlapping"},
		// The controller schedules in spec order, so the first window's end
		// would cancel the second's start at 20 s, or the second's state
		// inside it.
		{"touching jitter in reverse order", Spec{Faults: []Fault{
			{Kind: Jitter, At: 20 * time.Second, Until: 30 * time.Second, Max: 5 * time.Millisecond},
			{Kind: Jitter, At: 10 * time.Second, Until: 20 * time.Second, Max: 2 * time.Millisecond},
		}}, "touching"},
		{"touching link-downs in reverse order", Spec{Faults: []Fault{
			{Kind: LinkDown, At: 20 * time.Second, Until: 30 * time.Second, Link: 1},
			{Kind: LinkDown, At: 10 * time.Second, Until: 20 * time.Second, Link: 1},
		}}, "previous outage"},
		{"overlapping link-downs", Spec{Faults: []Fault{
			{Kind: LinkDown, At: 10 * time.Second, Until: 25 * time.Second, Link: 1},
			{Kind: LinkDown, At: 20 * time.Second, Until: 30 * time.Second, Link: 1},
		}}, "previous outage"},
		{"link-down at its open outage's link-up", Spec{Faults: []Fault{
			{Kind: LinkDown, At: 10 * time.Second, Link: 1},
			{Kind: LinkUp, At: 20 * time.Second, Link: 1},
			{Kind: LinkDown, At: 20 * time.Second, Until: 30 * time.Second, Link: 1},
		}}, "previous outage"},
	}
	for _, c := range cases {
		err := c.spec.Validate(tree)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wants) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wants)
		}
	}
}

func TestValidateAcceptsLinkDownWithLaterLinkUp(t *testing.T) {
	s := Spec{Faults: []Fault{
		{Kind: LinkDown, At: time.Second, Link: 5},
		{Kind: LinkUp, At: 3 * time.Second, Link: 5},
	}}
	if err := s.Validate(testTree(t)); err != nil {
		t.Fatal(err)
	}
}

func TestScenariosAreValidAndDistinct(t *testing.T) {
	tree := testTree(t)
	specs := Scenarios(tree, 2*time.Minute)
	if len(specs) < 6 {
		t.Fatalf("scenario matrix has %d entries, want at least 6", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" {
			t.Fatal("unnamed scenario")
		}
		if seen[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(tree); err != nil {
			t.Errorf("scenario %q invalid: %v", s.Name, err)
		}
	}
	for _, want := range []string{"crash", "crash-restart", "link-flap", "jitter-ramp", "dup-storm", "session-starve", "member-churn", "late-join", "queue-overload", "replier-churn", "replier-leave", "combined"} {
		if !seen[want] {
			t.Errorf("scenario %q missing from matrix", want)
		}
	}
}

// TestParseSpecHardening pins the parse-time rejections added for the
// soak fuzzer: ill-formed windows, duplicate and inapplicable options,
// and negative or overflow-scale durations must fail with precise
// errors instead of surviving until Validate (or, worse, the engine).
func TestParseSpecHardening(t *testing.T) {
	cases := []struct {
		text string
		want string // substring of the error
	}{
		{"crash@40s-30s:host=1", "not after instant"},
		{"crash@40s-40s:host=1", "not after instant"},
		// A leading "-" reads as the window separator, so a negative
		// instant is a syntax error; a negative window end is reachable.
		{"jitter@-5s-10s:max=1ms", "bad instant"},
		{"jitter@5s--10s:max=1ms", "negative window end"},
		{"crash@9000h:host=1", "spec ceiling"},
		{"jitter@1s-9000h:max=1ms", "spec ceiling"},
		{"jitter@1s-2s:max=-1ms", "negative max"},
		{"jitter@1s-2s:max=9000h", "spec ceiling"},
		{"dup@1s-2s:prob=0.5,delay=-2ms", "negative delay"},
		{"crash@1s:host=2,host=3", "duplicate option"},
		{"crash@1s:purge,purge", "duplicate option"},
		{"dup@1s-2s:prob=0.5,prob=0.6", "duplicate option"},
		{"jitter@1s-2s:max=1ms,host=3", "does not apply"},
		{"crash@1s:host=1,max=5ms", "does not apply"},
		{"starve@1s-2s:link=4", "does not apply"},
		{"crash@1s:host=-2", "negative host"},
		{"link-down@1s-2s:link=-1", "negative link"},
		{"dup@1s-2s:prob=NaN,delay=1ms", "outside (0,1]"},
		{"dup@1s-2s:prob=0,delay=1ms", "outside (0,1]"},
		{"dup@1s-2s:prob=1.5,delay=1ms", "outside (0,1]"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.text)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", c.text)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpec(%q) error %q, want substring %q", c.text, err, c.want)
		}
	}
}
