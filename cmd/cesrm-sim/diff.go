package main

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"cesrm/internal/stats"
	"cesrm/internal/topology"
)

// diffContext is how many events before the first divergence -diff
// prints.
const diffContext = 3

// readEvents reads one -events file.
func readEvents(path string) ([]stats.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := stats.ReadEventsNDJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}

// lossKey names one loss: the host that lost packet seq of source's
// stream.
type lossKey struct {
	host, source topology.NodeID
	seq          int
}

// lossOutcome is what became of one loss. A host that detects the same
// loss again after a restart or rejoin starts a fresh outcome, so the
// last incarnation's is what compares.
type lossOutcome struct {
	detectedAt   time.Duration
	rounds       int
	recovered    bool
	recoveredAt  time.Duration
	requestor    topology.NodeID
	replier      topology.NodeID
	expedited    bool
	abandoned    bool
	abandonRound int
}

func (o *lossOutcome) String() string {
	s := fmt.Sprintf("detected at %v, %d request rounds", o.detectedAt, o.rounds)
	switch {
	case o.recovered:
		s += fmt.Sprintf(", recovered at %v, requestor %d, replier %d", o.recoveredAt, o.requestor, o.replier)
		if o.expedited {
			s += ", expedited"
		}
	case o.abandoned:
		s += fmt.Sprintf(", abandoned after %d rounds", o.abandonRound)
	default:
		s += ", not recovered"
	}
	return s
}

// outcomes folds an event stream into each loss's outcome.
func outcomes(evs []stats.Event) map[lossKey]*lossOutcome {
	out := map[lossKey]*lossOutcome{}
	for _, e := range evs {
		k := lossKey{e.Host, e.Source, e.Seq}
		switch e.Kind {
		case stats.EventLossDetected:
			out[k] = &lossOutcome{detectedAt: time.Duration(e.At)}
			continue
		case stats.EventRequestSent, stats.EventRecovered, stats.EventRequestAbandoned:
		default:
			continue
		}
		o := out[k]
		if o == nil {
			continue // not a loss of e.Host's: the validator's business
		}
		switch e.Kind {
		case stats.EventRequestSent:
			o.rounds++
		case stats.EventRecovered:
			o.recovered, o.recoveredAt = true, time.Duration(e.At)
			o.requestor, o.replier, o.expedited = e.Requestor, e.Replier, e.Expedited
		case stats.EventRequestAbandoned:
			o.abandoned, o.abandonRound = true, e.Round
		}
	}
	return out
}

// eventText renders one event on one line.
func eventText(e stats.Event) string {
	s := fmt.Sprintf("%v %s host %d", time.Duration(e.At), e.Kind, e.Host)
	switch e.Kind {
	case stats.EventSessionSent:
		return s
	case stats.EventRequestSent:
		s += fmt.Sprintf(" (%d,%d) round %d", e.Source, e.Seq, e.Round)
	case stats.EventRequestAbandoned:
		s += fmt.Sprintf(" (%d,%d) after %d rounds", e.Source, e.Seq, e.Round)
	case stats.EventRecovered:
		s += fmt.Sprintf(" (%d,%d) requestor %d replier %d own requests %d reschedules %d",
			e.Source, e.Seq, e.Requestor, e.Replier, e.OwnRequests, e.Reschedules)
	default:
		s += fmt.Sprintf(" (%d,%d)", e.Source, e.Seq)
	}
	if e.Expedited {
		s += " expedited"
	}
	return s
}

// diffEvents compares two runs' event streams: the first event at which
// they part, with the few before it; every loss, keyed by (host, source,
// seq), whose outcome differs; and how many losses kept theirs.
func diffEvents(w io.Writer, pathA, pathB string) error {
	a, err := readEvents(pathA)
	if err != nil {
		return err
	}
	b, err := readEvents(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "events: a %d, b %d\n", len(a), len(b))
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	if i == len(a) && i == len(b) {
		fmt.Fprintln(w, "the event streams are identical")
	} else {
		fmt.Fprintf(w, "first divergence at event %d\n", i+1)
		for _, e := range a[max(0, i-diffContext):i] {
			fmt.Fprintf(w, "    %s\n", eventText(e))
		}
		for _, side := range []struct {
			name string
			evs  []stats.Event
		}{{"a", a}, {"b", b}} {
			text := "end of stream"
			if i < len(side.evs) {
				text = eventText(side.evs[i])
			}
			fmt.Fprintf(w, "  %s %s\n", side.name, text)
		}
	}

	oa, ob := outcomes(a), outcomes(b)
	keys := make([]lossKey, 0, len(oa)+len(ob))
	for k := range oa {
		keys = append(keys, k)
	}
	for k := range ob {
		if oa[k] == nil {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(x, y lossKey) int {
		return cmp.Or(cmp.Compare(x.source, y.source), cmp.Compare(x.host, y.host), cmp.Compare(x.seq, y.seq))
	})
	var changed strings.Builder
	moved, same := 0, 0
	for _, k := range keys {
		x, y := oa[k], ob[k]
		if x != nil && y != nil && *x == *y {
			same++
			continue
		}
		moved++
		fmt.Fprintf(&changed, "  host %d (%d,%d)\n    a %s\n    b %s\n", k.host, k.source, k.seq, outcomeText(x), outcomeText(y))
	}
	fmt.Fprintf(w, "losses whose outcome changed: %d\n%s", moved, changed.String())
	fmt.Fprintf(w, "losses unchanged: %d\n", same)
	return nil
}

// outcomeText renders a loss's outcome, or its absence.
func outcomeText(o *lossOutcome) string {
	if o == nil {
		return "not detected"
	}
	return o.String()
}
