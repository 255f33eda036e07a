// Package chaos is a deterministic, seeded fault-injection harness for
// the simulator: it composes churn scenarios — host crashes and
// restarts, link up/down flaps, delay-jitter ramps, duplicate-delivery
// storms and session-message starvation — from a declarative schema and
// schedules every fault through the simulation engine, so a chaos run
// is exactly as reproducible as a fault-free one: same seed, same spec,
// same run fingerprint.
//
// The paper's §3.3 argues CESRM degrades gracefully in dynamic
// environments: cached repliers that crash stop answering expedited
// requests and recovery falls back to SRM. This package turns that
// argument into checkable scenarios, paired with the online invariants
// in internal/stats (post-crash silence, live-receiver reliability,
// bounded SRM fallback).
package chaos

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"cesrm/internal/topology"
)

// Kind discriminates fault types.
type Kind int

const (
	// Crash fail-stops a host at At.
	Crash Kind = iota + 1
	// Restart rejoins a previously crashed host at At with fresh state.
	Restart
	// LinkDown severs a link at At; it is restored at Until when Until
	// is set, otherwise a later LinkUp fault must restore it.
	LinkDown
	// LinkUp restores a severed link at At.
	LinkUp
	// Jitter ramps the delivery-jitter magnitude to Max over [At, Until),
	// then restores the run's baseline magnitude.
	Jitter
	// Duplicate delivers a second, delayed copy of each packet with
	// probability Prob over [At, Until).
	Duplicate
	// Starve drops all session messages (or only those originating at
	// Host, when set) over [At, Until).
	Starve
	// Leave gracefully departs Host at At: the member announces its
	// departure, goes silent without amnesia, and every live endpoint
	// drops cached pairs naming it (the paper's §3.3 membership
	// dynamics, as an advertised departure rather than a fail-stop).
	Leave
	// Join admits Host at At. A host whose earliest membership fault is
	// a Join starts the run absent (a late joiner); its loss detection
	// begins at the first data it hears about after joining, not seq 0.
	Join
	// QueueCap bounds every link queue to Cap outstanding transmissions
	// over [At, Until): arrivals past the cap are tail-dropped
	// deterministically, modelling congestion loss rather than channel
	// loss.
	QueueCap
)

// String returns the kind's spec keyword.
func (k Kind) String() string {
	if k > 0 && int(k) < len(kinds) {
		return kinds[k].keyword
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// kinds defines each fault kind of the spec text once: its keyword and
// the option keys it accepts, in the order String renders them.
// Rejecting inapplicable keys at parse time (rather than silently
// ignoring them) keeps the parser a left inverse of String: every
// accepted fault renders back to text that reparses to the same fault.
var kinds = [...]struct {
	keyword string
	options []string
}{
	Crash:     {"crash", []string{"host", "purge"}},
	Restart:   {"restart", []string{"host"}},
	LinkDown:  {"link-down", []string{"link"}},
	LinkUp:    {"link-up", []string{"link"}},
	Jitter:    {"jitter", []string{"max"}},
	Duplicate: {"dup", []string{"prob", "delay"}},
	Starve:    {"starve", []string{"host"}},
	Leave:     {"leave", []string{"host"}},
	Join:      {"join", []string{"host"}},
	QueueCap:  {"qcap", []string{"cap"}},
}

// Fault is one scheduled fault. Which fields are meaningful depends on
// Kind; Validate rejects inconsistent combinations.
type Fault struct {
	// Kind discriminates the fault.
	Kind Kind
	// At is the virtual instant the fault engages.
	At time.Duration
	// Until ends the window of windowed kinds (Jitter, Duplicate,
	// Starve, and optionally LinkDown auto-restore). Zero means no
	// window end.
	Until time.Duration
	// Host targets Crash and Restart, and optionally restricts Starve
	// to one host's session stream (None = every host's).
	Host topology.NodeID
	// Purge, on a Crash, makes every live endpoint that supports it
	// (CESRM) drop cached pairs naming the dead host, modelling an
	// out-of-band membership announcement.
	Purge bool
	// Link targets LinkDown and LinkUp, identified by its downstream
	// endpoint.
	Link topology.LinkID
	// Max is the Jitter window's delivery-jitter magnitude.
	Max time.Duration
	// Prob is the Duplicate window's per-delivery duplication
	// probability.
	Prob float64
	// Delay is the extra delay of a Duplicate window's second copy.
	Delay time.Duration
	// Cap is the QueueCap window's per-link, per-direction queue bound
	// (queued-or-transmitting packets; at least 1).
	Cap int
}

// Spec is a named, ordered fault composition. Fault order breaks
// same-instant scheduling ties, so it is part of the deterministic
// contract.
type Spec struct {
	Name   string
	Faults []Fault
}

// HasJitter reports whether the spec contains jitter ramps (the harness
// must install a jitter RNG before the run starts).
func (s *Spec) HasJitter() bool { return s.hasKind(Jitter) }

// HasDuplicates reports whether the spec contains duplicate windows.
func (s *Spec) HasDuplicates() bool { return s.hasKind(Duplicate) }

// HasRestart reports whether the spec contains restart faults. Restarts
// are the one fault that invalidates the fully-recovered release
// watermark: a restarted host re-detects and re-recovers everything, so
// no prefix of the stream is ever globally dead. Every other kind,
// leaves and joins included, leaves the watermark sound.
func (s *Spec) HasRestart() bool { return s.hasKind(Restart) }

// HasMembership reports whether the spec contains graceful leave or
// join faults; the experiment layer arms bounded request retry for such
// runs (a requester whose repliers all departed must give up, not back
// off forever).
func (s *Spec) HasMembership() bool { return s.hasKind(Leave) || s.hasKind(Join) }

// HasQueueCap reports whether the spec contains finite-queue windows.
func (s *Spec) HasQueueCap() bool { return s.hasKind(QueueCap) }

// InitialAbsent returns the hosts whose earliest membership fault is a
// Join: late joiners that start the run outside the group and must not
// start sessions (or be held to reliability) until their Join fires.
func (s *Spec) InitialAbsent() map[topology.NodeID]bool {
	first := make(map[topology.NodeID]Fault)
	for _, f := range s.Faults {
		if f.Kind != Leave && f.Kind != Join {
			continue
		}
		if prev, ok := first[f.Host]; !ok || f.At < prev.At {
			first[f.Host] = f
		}
	}
	absent := make(map[topology.NodeID]bool)
	for h, f := range first {
		if f.Kind == Join {
			absent[h] = true
		}
	}
	return absent
}

func (s *Spec) hasKind(k Kind) bool {
	for _, f := range s.Faults {
		if f.Kind == k {
			return true
		}
	}
	return false
}

// Validate checks the spec against the topology it will run over:
// fault targets must exist (hosts must be receivers — the source cannot
// crash, and routers run no protocol), windows must be well-formed, and
// per kind neither overlap nor touch, every severed link must eventually
// be restored (an unrecoverable partition can never reach full
// reliability), and crash/restart sequences per host must alternate.
//
// The controller schedules each fault's start and end in spec order, so
// a window that ended where another began, or inside it, would have its
// end restore the baseline while the other window still claims it. Each
// link's outages are intervals for this check: a windowed link-down runs
// [At, Until), an open one to its link-up, and an outage must start
// strictly after the previous one's end.
func (s *Spec) Validate(tree *topology.Tree) error {
	type window struct{ from, to time.Duration }
	var jitterWins, dupWins, qcapWins []window
	crashes := map[topology.NodeID][]Fault{}    // crash/restart per host, spec order
	membership := map[topology.NodeID][]Fault{} // leave/join per host, spec order
	linkEvents := map[topology.LinkID][]Fault{}
	for i, f := range s.Faults {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("chaos: fault %d (%s): %s", i, f.Kind, fmt.Sprintf(format, args...))
		}
		if f.At < 0 {
			return fail("negative instant %v", f.At)
		}
		if f.Until != 0 && f.Until <= f.At {
			return fail("window end %v not after start %v", f.Until, f.At)
		}
		switch f.Kind {
		case Crash, Restart:
			if int(f.Host) < 0 || int(f.Host) >= tree.NumNodes() || !tree.IsReceiver(f.Host) {
				return fail("host %d is not a receiver", f.Host)
			}
			crashes[f.Host] = append(crashes[f.Host], f)
		case LinkDown, LinkUp:
			if f.Link == tree.Root() || int(f.Link) < 0 || int(f.Link) >= tree.NumNodes() {
				return fail("invalid link %d", f.Link)
			}
			linkEvents[f.Link] = append(linkEvents[f.Link], f)
		case Jitter:
			if f.Until == 0 {
				return fail("jitter ramp needs a window end")
			}
			if f.Max <= 0 {
				return fail("non-positive magnitude %v", f.Max)
			}
			jitterWins = append(jitterWins, window{f.At, f.Until})
		case Duplicate:
			if f.Until == 0 {
				return fail("duplicate window needs an end")
			}
			if f.Prob <= 0 || f.Prob > 1 {
				return fail("probability %v outside (0,1]", f.Prob)
			}
			if f.Delay < 0 {
				return fail("negative duplicate delay %v", f.Delay)
			}
			dupWins = append(dupWins, window{f.At, f.Until})
		case Starve:
			if f.Until == 0 {
				return fail("starvation window needs an end")
			}
			if f.Host != topology.None && (int(f.Host) < 0 || int(f.Host) >= tree.NumNodes()) {
				return fail("invalid host %d", f.Host)
			}
		case Leave, Join:
			if int(f.Host) < 0 || int(f.Host) >= tree.NumNodes() || !tree.IsReceiver(f.Host) {
				return fail("host %d is not a receiver", f.Host)
			}
			membership[f.Host] = append(membership[f.Host], f)
		case QueueCap:
			if f.Until == 0 {
				return fail("queue-cap window needs an end")
			}
			if f.Cap < 1 {
				return fail("non-positive queue cap %d", f.Cap)
			}
			qcapWins = append(qcapWins, window{f.At, f.Until})
		default:
			return fail("unknown kind")
		}
	}
	for _, wins := range [][]window{jitterWins, dupWins, qcapWins} {
		wins := append([]window(nil), wins...)
		sort.Slice(wins, func(i, j int) bool { return wins[i].from < wins[j].from })
		for i := 1; i < len(wins); i++ {
			if wins[i].from <= wins[i-1].to {
				return fmt.Errorf("chaos: overlapping or touching windows [%v,%v) and [%v,%v)",
					wins[i-1].from, wins[i-1].to, wins[i].from, wins[i].to)
			}
		}
	}
	for h, seq := range crashes {
		sort.SliceStable(seq, func(i, j int) bool { return seq[i].At < seq[j].At })
		down := false
		for _, f := range seq {
			switch f.Kind {
			case Crash:
				if down {
					return fmt.Errorf("chaos: host %d crashed twice without a restart", h)
				}
				down = true
			case Restart:
				if !down {
					return fmt.Errorf("chaos: host %d restarted while live", h)
				}
				down = false
			}
		}
	}
	for h, seq := range membership {
		// Mixing fail-stop and graceful-membership faults on one host
		// would muddle both silence invariants (is the host dead or
		// departed?); keep the two churn vocabularies disjoint per host.
		if len(crashes[h]) > 0 {
			return fmt.Errorf("chaos: host %d mixes crash/restart and leave/join faults", h)
		}
		sort.SliceStable(seq, func(i, j int) bool { return seq[i].At < seq[j].At })
		// A host whose earliest membership fault is a Join starts the
		// run absent (a late joiner); otherwise it starts present.
		present := seq[0].Kind == Leave
		for _, f := range seq {
			switch f.Kind {
			case Leave:
				if !present {
					return fmt.Errorf("chaos: host %d left while absent", h)
				}
				present = false
			case Join:
				if present {
					return fmt.Errorf("chaos: host %d joined while present", h)
				}
				present = true
			}
		}
	}
	for l, seq := range linkEvents {
		sort.SliceStable(seq, func(i, j int) bool { return seq[i].At < seq[j].At })
		// open marks an outage awaiting its link-up; end is where the
		// previous outage ended.
		open, end := false, time.Duration(-1)
		for _, f := range seq {
			switch f.Kind {
			case LinkDown:
				if open {
					return fmt.Errorf("chaos: link %d downed twice without restoration", l)
				}
				if f.At <= end {
					return fmt.Errorf("chaos: link %d downed at %v, not after its previous outage ended at %v", l, f.At, end)
				}
				open, end = f.Until == 0, f.Until
			case LinkUp:
				if !open {
					return fmt.Errorf("chaos: link %d raised while up", l)
				}
				open, end = false, f.At
			}
		}
		if open {
			return fmt.Errorf("chaos: link %d is severed forever (no restoration)", l)
		}
	}
	return nil
}

// String renders the spec in the compact text format ParseSpec accepts.
// It is a right inverse of ParseSpec: options holding their parse-time
// zero value (Host/Link None, zero Max/Prob/Delay) are omitted rather
// than rendered, since the parser — which rejects negative hosts and
// zero probabilities — could never have produced them from text.
func (s *Spec) String() string {
	parts := make([]string, 0, len(s.Faults))
	for _, f := range s.Faults {
		var b strings.Builder
		fmt.Fprintf(&b, "%s@%s", f.Kind, f.At)
		if f.Until != 0 {
			fmt.Fprintf(&b, "-%s", f.Until)
		}
		var opts []string
		if f.Kind > 0 && int(f.Kind) < len(kinds) {
			for _, key := range kinds[f.Kind].options {
				if text := f.renderOption(key); text != "" {
					opts = append(opts, text)
				}
			}
		}
		if len(opts) > 0 {
			fmt.Fprintf(&b, ":%s", strings.Join(opts, ","))
		}
		parts = append(parts, b.String())
	}
	return strings.Join(parts, ";")
}

// renderOption renders f's option key, or "" when f holds the option's
// parse-time zero.
func (f *Fault) renderOption(key string) string {
	switch {
	case key == "host" && f.Host != topology.None:
		return fmt.Sprintf("host=%d", f.Host)
	case key == "purge" && f.Purge:
		return "purge"
	case key == "link" && f.Link != topology.LinkID(topology.None):
		return fmt.Sprintf("link=%d", f.Link)
	case key == "max" && f.Max != 0:
		return fmt.Sprintf("max=%s", f.Max)
	case key == "prob" && f.Prob != 0:
		return fmt.Sprintf("prob=%s", strconv.FormatFloat(f.Prob, 'g', -1, 64))
	case key == "delay" && f.Delay != 0:
		return fmt.Sprintf("delay=%s", f.Delay)
	case key == "cap" && f.Cap != 0:
		return fmt.Sprintf("cap=%d", f.Cap)
	}
	return ""
}

// ParseSpec parses the compact text format used by cesrm-sim -chaos:
// semicolon-separated faults of the form
//
//	kind@at[-until][:key=value[,key=value...]]
//
// for example
//
//	crash@40s:host=3;restart@70s:host=3;link-down@10s-20s:link=5;
//	jitter@30s-50s:max=5ms;dup@5s-90s:prob=0.01,delay=2ms;starve@20s-45s
//
// Instants are Go durations measured from simulation start. The
// returned spec is syntactically checked only; call Validate with the
// run's topology before use.
func ParseSpec(text string) (*Spec, error) {
	s := &Spec{Name: "custom"}
	for _, part := range strings.Split(text, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := parseFault(part)
		if err != nil {
			return nil, fmt.Errorf("chaos: %q: %w", part, err)
		}
		s.Faults = append(s.Faults, f)
	}
	if len(s.Faults) == 0 {
		return nil, fmt.Errorf("chaos: empty spec %q", text)
	}
	return s, nil
}

// maxSpecDuration is the parser's ceiling on every duration in a spec:
// one year of virtual time, orders of magnitude past any trace horizon
// but small enough that horizon arithmetic (fault instants plus back-off
// multiples) can never approach int64 overflow. Durations at or beyond
// it are almost certainly fuzzer artifacts or unit typos, and rejecting
// them here keeps overflow pathologies out of the engine entirely.
const maxSpecDuration = 365 * 24 * time.Hour

// specDuration parses a duration operand, rejecting negative values and
// values beyond the spec ceiling with precise errors. what names the
// operand in errors.
func specDuration(what, text string) (time.Duration, error) {
	d, err := time.ParseDuration(text)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %w", what, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative %s %v", what, d)
	}
	if d >= maxSpecDuration {
		return 0, fmt.Errorf("%s %v at or beyond the %v spec ceiling", what, d, maxSpecDuration)
	}
	return d, nil
}

func parseFault(text string) (Fault, error) {
	f := Fault{Host: topology.None, Link: topology.LinkID(topology.None)}
	head, opts, hasOpts := strings.Cut(text, ":")
	kindStr, when, ok := strings.Cut(head, "@")
	if !ok {
		return f, fmt.Errorf("missing @instant")
	}
	for k := range kinds {
		if k > 0 && kinds[k].keyword == kindStr {
			f.Kind = Kind(k)
		}
	}
	if f.Kind == 0 {
		return f, fmt.Errorf("unknown fault kind %q", kindStr)
	}
	from, to, windowed := strings.Cut(when, "-")
	at, err := specDuration("instant", from)
	if err != nil {
		return f, err
	}
	f.At = at
	if windowed {
		until, err := specDuration("window end", to)
		if err != nil {
			return f, err
		}
		if until <= f.At {
			return f, fmt.Errorf("window end %v not after instant %v", until, f.At)
		}
		f.Until = until
	}
	if !hasOpts {
		return f, nil
	}
	seen := make(map[string]bool, 4)
	for _, opt := range strings.Split(opts, ",") {
		key, val, hasVal := strings.Cut(opt, "=")
		if !slices.Contains(kinds[f.Kind].options, key) {
			for _, k := range kinds {
				if slices.Contains(k.options, key) {
					return f, fmt.Errorf("option %q does not apply to %s faults", key, f.Kind)
				}
			}
			return f, fmt.Errorf("unknown option %q", key)
		}
		if seen[key] {
			return f, fmt.Errorf("duplicate option %q", key)
		}
		seen[key] = true
		switch key {
		case "host":
			n, err := strconv.Atoi(val)
			if err != nil {
				return f, fmt.Errorf("bad host: %w", err)
			}
			if n < 0 {
				return f, fmt.Errorf("negative host %d", n)
			}
			f.Host = topology.NodeID(n)
		case "link":
			n, err := strconv.Atoi(val)
			if err != nil {
				return f, fmt.Errorf("bad link: %w", err)
			}
			if n < 0 {
				return f, fmt.Errorf("negative link %d", n)
			}
			f.Link = topology.LinkID(n)
		case "max":
			d, err := specDuration("max", val)
			if err != nil {
				return f, err
			}
			f.Max = d
		case "delay":
			d, err := specDuration("delay", val)
			if err != nil {
				return f, err
			}
			f.Delay = d
		case "prob":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return f, fmt.Errorf("bad prob: %w", err)
			}
			// The open comparison rejects NaN alongside out-of-range
			// values: a NaN probability would otherwise defeat every
			// comparison in the duplicate-injection hook and duplicate
			// all traffic.
			if !(p > 0 && p <= 1) {
				return f, fmt.Errorf("prob %v outside (0,1]", p)
			}
			f.Prob = p
		case "purge":
			if hasVal {
				return f, fmt.Errorf("purge takes no value")
			}
			f.Purge = true
		case "cap":
			n, err := strconv.Atoi(val)
			if err != nil {
				return f, fmt.Errorf("bad cap: %w", err)
			}
			if n < 1 {
				return f, fmt.Errorf("non-positive cap %d", n)
			}
			f.Cap = n
		}
	}
	return f, nil
}

// Scenarios builds the deterministic scenario matrix for a topology:
// one spec per churn dimension plus a combined stressor, with fault
// instants placed at fixed fractions of horizon (the run's
// warmup-plus-data-phase duration). The matrix is what cesrm-bench
// -chaos-matrix sweeps and CI smokes.
func Scenarios(tree *topology.Tree, horizon time.Duration) []*Spec {
	recs := tree.Receivers()
	a := recs[0]
	b := recs[len(recs)/2]
	if b == a && len(recs) > 1 {
		b = recs[1]
	}
	frac := func(num, den int64) time.Duration {
		return horizon * time.Duration(num) / time.Duration(den)
	}
	specs := []*Spec{
		{Name: "crash", Faults: []Fault{
			{Kind: Crash, At: frac(2, 5), Host: a},
		}},
		{Name: "crash-restart", Faults: []Fault{
			{Kind: Crash, At: frac(3, 10), Host: a},
			{Kind: Restart, At: frac(3, 5), Host: a},
		}},
		{Name: "link-flap", Faults: []Fault{
			{Kind: LinkDown, At: frac(1, 4), Until: frac(7, 20), Link: topology.LinkID(a)},
			{Kind: LinkDown, At: frac(11, 20), Until: frac(3, 5), Link: topology.LinkID(a)},
		}},
		{Name: "jitter-ramp", Faults: []Fault{
			{Kind: Jitter, At: frac(1, 5), Until: frac(2, 5), Max: 2 * time.Millisecond},
			{Kind: Jitter, At: frac(1, 2), Until: frac(7, 10), Max: 5 * time.Millisecond},
		}},
		{Name: "dup-storm", Faults: []Fault{
			{Kind: Duplicate, At: frac(1, 10), Until: frac(9, 10), Prob: 0.05, Delay: 3 * time.Millisecond},
		}},
		{Name: "session-starve", Faults: []Fault{
			{Kind: Starve, At: frac(1, 5), Until: frac(1, 2)},
		}},
		{Name: "member-churn", Faults: []Fault{
			{Kind: Leave, At: frac(3, 10), Host: a},
			{Kind: Join, At: frac(13, 20), Host: a},
		}},
		{Name: "late-join", Faults: []Fault{
			{Kind: Join, At: frac(1, 4), Host: a},
		}},
		{Name: "queue-overload", Faults: []Fault{
			{Kind: QueueCap, At: frac(1, 5), Until: frac(3, 5), Cap: 2},
		}},
	}
	if b != a {
		specs = append(specs,
			&Spec{Name: "replier-churn", Faults: []Fault{
				{Kind: Crash, At: frac(1, 4), Host: a, Purge: true},
				{Kind: Crash, At: frac(2, 5), Host: b},
				{Kind: Restart, At: frac(11, 20), Host: a},
			}},
			&Spec{Name: "replier-leave", Faults: []Fault{
				{Kind: Leave, At: frac(2, 5), Host: b},
			}},
			&Spec{Name: "combined", Faults: []Fault{
				{Kind: Crash, At: frac(3, 10), Host: b},
				{Kind: Restart, At: frac(1, 2), Host: b},
				{Kind: LinkDown, At: frac(7, 20), Until: frac(9, 20), Link: topology.LinkID(a)},
				{Kind: Duplicate, At: frac(1, 5), Until: frac(4, 5), Prob: 0.02, Delay: 2 * time.Millisecond},
				{Kind: Starve, At: frac(3, 5), Until: frac(7, 10)},
			}},
		)
	}
	return specs
}
