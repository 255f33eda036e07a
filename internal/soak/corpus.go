package soak

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"cesrm/internal/chaos"
	"cesrm/internal/experiment"
	"cesrm/internal/sim"
	"cesrm/internal/trace"
)

// Entry is one replayable corpus scenario, the persisted form of a
// (usually minimized) soak failure. The on-disk format is line-based
// "key = value" with "#" comment lines:
//
//	# free-form notes
//	trace = WRN951216
//	protocol = CESRM
//	scale = 0.01
//	seed = 42
//	class = invariant:crash-silence
//	spec = crash@17s:host=4
//
// trace, protocol and spec are required; scale defaults to 0.01 and
// seed to 1. class records the failure class observed when the entry
// was captured — replay reports divergence from it but does not fail on
// it, because a fixed bug legitimately changes an entry's outcome to
// clean completion.
type Entry struct {
	// Trace is the catalog trace name (trace.ByName).
	Trace string
	// Protocol selects SRM, CESRM or LMS.
	Protocol experiment.Protocol
	// Scale is the trace volume scale.
	Scale float64
	// Seed drives the run's protocol randomness.
	Seed int64
	// Spec is the chaos schedule to replay.
	Spec *chaos.Spec
	// Class is the failure class recorded at capture time ("" for a
	// scenario expected to complete cleanly).
	Class string
	// Note holds free-form comment lines persisted above the entry.
	Note []string
}

// Marshal renders the entry in the corpus file format.
func (e *Entry) Marshal() []byte {
	var b strings.Builder
	for _, n := range e.Note {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	fmt.Fprintf(&b, "trace = %s\n", e.Trace)
	fmt.Fprintf(&b, "protocol = %s\n", e.Protocol)
	fmt.Fprintf(&b, "scale = %s\n", strconv.FormatFloat(e.Scale, 'g', -1, 64))
	fmt.Fprintf(&b, "seed = %d\n", e.Seed)
	if e.Class != "" {
		fmt.Fprintf(&b, "class = %s\n", e.Class)
	}
	fmt.Fprintf(&b, "spec = %s\n", e.Spec)
	return []byte(b.String())
}

// ParseEntry parses the corpus file format.
func ParseEntry(data []byte) (*Entry, error) {
	e := &Entry{Scale: 0.01, Seed: 1}
	seen := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			e.Note = append(e.Note, strings.TrimSpace(strings.TrimPrefix(line, "#")))
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("soak: corpus line %d: no '=' in %q", i+1, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if seen[key] {
			return nil, fmt.Errorf("soak: corpus line %d: duplicate key %q", i+1, key)
		}
		seen[key] = true
		var err error
		switch key {
		case "trace":
			e.Trace = val
		case "protocol":
			e.Protocol, err = experiment.ParseProtocol(val)
		case "scale":
			e.Scale, err = strconv.ParseFloat(val, 64)
		case "seed":
			e.Seed, err = strconv.ParseInt(val, 10, 64)
		case "class":
			e.Class = val
		case "spec":
			e.Spec, err = chaos.ParseSpec(val)
		default:
			return nil, fmt.Errorf("soak: corpus line %d: unknown key %q", i+1, key)
		}
		if err != nil {
			return nil, fmt.Errorf("soak: corpus line %d: %s: %w", i+1, key, err)
		}
	}
	switch {
	case e.Trace == "":
		return nil, fmt.Errorf("soak: corpus entry missing trace")
	case !seen["protocol"]:
		return nil, fmt.Errorf("soak: corpus entry missing protocol")
	case e.Spec == nil:
		return nil, fmt.Errorf("soak: corpus entry missing spec")
	case e.Scale <= 0 || e.Scale > 1:
		return nil, fmt.Errorf("soak: corpus scale %v out of (0, 1]", e.Scale)
	}
	return e, nil
}

// ReadEntry reads and parses one corpus file.
func ReadEntry(path string) (*Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	e, err := ParseEntry(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// WriteEntry writes one corpus file.
func WriteEntry(path string, e *Entry) error {
	return os.WriteFile(path, e.Marshal(), 0o644)
}

// ReplayOutcome reports one corpus entry's replay.
type ReplayOutcome struct {
	// Path is the corpus file replayed.
	Path string
	// Entry is the parsed entry.
	Entry *Entry
	// Trial is the trial the entry resolved to.
	Trial Trial
	// Status is the engine termination status (Completed when the run
	// panicked before the engine could stop — Failure distinguishes).
	Status sim.TerminationStatus
	// Fingerprint is the run's determinism digest ("" on panic).
	Fingerprint string
	// Result is the run result, nil if the run panicked.
	Result *experiment.RunResult
	// Failure is how the replay failed, nil on clean completion.
	Failure *Failure
}

// Replay runs one corpus file under the runner's budget.
func (r *Runner) Replay(path string) (*ReplayOutcome, error) {
	e, err := ReadEntry(path)
	if err != nil {
		return nil, err
	}
	ent, ok := trace.ByName(e.Trace)
	if !ok {
		return nil, fmt.Errorf("%s: unknown catalog trace %q", path, e.Trace)
	}
	tr, err := r.loader.load(ent.Index, e.Scale)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := e.Spec.Validate(tr.Tree); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	trial := Trial{TraceIndex: ent.Index, Protocol: e.Protocol, Scale: e.Scale, Seed: e.Seed, Spec: e.Spec}
	res, fail := r.runLoaded(tr, trial)
	out := &ReplayOutcome{Path: path, Entry: e, Trial: trial, Result: res, Failure: fail}
	if res != nil {
		out.Status = res.Status
		out.Fingerprint = res.Fingerprint
	}
	return out, nil
}

// ReplayDir replays every *.spec file in dir, in sorted path order.
func (r *Runner) ReplayDir(dir string) ([]*ReplayOutcome, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.spec"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("soak: no *.spec corpus entries in %s", dir)
	}
	sort.Strings(paths)
	out := make([]*ReplayOutcome, 0, len(paths))
	for _, p := range paths {
		o, err := r.Replay(p)
		if err != nil {
			return out, err
		}
		out = append(out, o)
	}
	return out, nil
}

// ReplayPath replays a corpus file, or every entry of a corpus
// directory.
func (r *Runner) ReplayPath(path string) ([]*ReplayOutcome, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		return r.ReplayDir(path)
	}
	o, err := r.Replay(path)
	if err != nil {
		return nil, err
	}
	return []*ReplayOutcome{o}, nil
}
