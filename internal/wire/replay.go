package wire

import (
	"encoding/hex"
	"fmt"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/stats"
)

// Divergence is one mismatch between a live capture and its
// deterministic replay.
type Divergence struct {
	// Index is the position in the capture's ordered send+obs stream.
	Index int
	// Want is the captured record, Got the replayed one (empty when the
	// replay produced fewer records).
	Want, Got string
}

func (d Divergence) String() string {
	return fmt.Sprintf("record %d:\n  capture: %s\n  replay:  %s", d.Index, d.Want, d.Got)
}

// Report is the outcome of replaying a capture through the simulator.
type Report struct {
	// Node is the replayed node's ID.
	Node int
	// Sends and Events count the capture's logical sends and protocol
	// events.
	Sends, Events int
	// Recoveries counts EventRecovered records — the recovery decisions
	// the oracle certifies — and Expedited how many were expedited.
	Recoveries, Expedited int
	// Divergences lists every mismatch, in stream order.
	Divergences []Divergence
}

// OK reports a divergence-free replay.
func (r *Report) OK() bool { return len(r.Divergences) == 0 }

// maxDivergences caps Report.Divergences: past the first few, a
// diverged replay has nothing more to say.
const maxDivergences = 20

// Replay reconstructs the captured node inside the deterministic
// simulator and feeds it the captured arrival stream, record by record,
// using the same one-packet-at-a-time discipline as the live Driver:
//
//	RunUntil(at); ScheduleHandlerAt(at, handler); RunUntil(at)
//
// per arrival, then RunUntil(end). Both go through arrival.foldIn, whose
// single reusable handler relies on one arrival being in flight at a
// time. The replayed node's outbound packet bytes and protocol-event
// stream are compared against the capture in order, each record as the
// node emits it; any mismatch is a Divergence. A clean replay certifies
// that the live node's recovery decisions — who requested, who replied,
// expedited or fallback — are exactly what the simulator's semantics
// prescribe for the traffic the node saw.
func Replay(c *Capture) (*Report, error) {
	cfg, err := c.Header.NodeConfig()
	if err != nil {
		return nil, err
	}
	report := &Report{Node: int(cfg.ID)}

	// Rebuild the node: same engine semantics, same endpoint behavior,
	// but sends go nowhere — they are checked against the capture instead.
	eng := sim.NewEngine()
	conf := conformance{report: report, records: c.Records}
	net := NewNetwork(cfg.Tree, cfg.Net, cfg.ID, eng.Now)
	net.SetOnSend(conf.send)
	obs := stats.NewRecorder(eng.Now)
	obs.SetKeep(false)
	obs.SetSink(conf.obs)
	if _, err := newSession(eng, net, cfg, obs); err != nil {
		return nil, err
	}

	// Feed the arrival stream until the engine stops, and count the
	// capture's sends, events and recoveries on the way: the counts
	// describe the capture, so they cover every record. The hex buffer and
	// the decoder's packet are reused from one arrival to the next: each
	// is delivered, and done with, before the next is read.
	var (
		raw []byte
		dec netsim.PacketDecoder
		arr = arrival[*netsim.Packet]{deliver: net.Host().Deliver}
	)
	for i := range c.Records {
		switch rec := &c.Records[i]; {
		case rec.Kind == recKindSend:
			report.Sends++
		case rec.Kind == recKindObs:
			report.Events++
			if rec.Event != nil && rec.Event.Kind == stats.EventRecovered {
				report.Recoveries++
				if rec.Event.Expedited {
					report.Expedited++
				}
			}
		case rec.Kind == recKindRecv && !eng.Stopped():
			raw = append(raw[:0], rec.Data...)
			n, err := hex.Decode(raw, raw)
			if err != nil {
				return nil, fmt.Errorf("wire: capture recv %d: %w", i, err)
			}
			p, err := dec.Decode(raw[:n])
			if err != nil {
				return nil, fmt.Errorf("wire: capture recv %d: %w", i, err)
			}
			at := sim.Time(rec.AtNS)
			if at.Before(eng.Now()) {
				// The live driver clamps arrivals to the engine clock, so a
				// regressing instant means the capture is inconsistent.
				return nil, fmt.Errorf("wire: capture recv %d at %v regresses before %v", i, at, eng.Now())
			}
			arr.foldIn(eng, at, p)
		}
	}
	if !eng.Stopped() {
		eng.RunUntil(sim.Time(c.End.AtNS))
	}
	conf.finish()
	return report, nil
}

// conformance checks the replayed node's send/obs stream against the
// captured one as it is emitted: a cursor into the capture instead of
// two rendered streams held for a final pass. A replayed record matches
// its captured counterpart exactly when their renderRecord strings are
// equal — the rendering is injective on (kind, at, data) for sends and
// on (kind, at, the ten event fields it prints) for events — so the
// fields are compared directly and renderRecord runs only to describe a
// divergence.
type conformance struct {
	report  *Report
	records []Record
	// next is the cursor into records; index is the position in the
	// send+obs stream of the record being checked.
	next, index int
}

// want advances the cursor past the next captured send or obs record
// and returns it, or nil when the capture has no more.
func (c *conformance) want() *Record {
	for c.next < len(c.records) {
		rec := &c.records[c.next]
		c.next++
		if rec.Kind == recKindSend || rec.Kind == recKindObs {
			return rec
		}
	}
	return nil
}

// full reports whether the divergence list has reached its cap, after
// which nothing more is compared.
func (c *conformance) full() bool { return len(c.report.Divergences) >= maxDivergences }

// diverge records that the captured record w (nil: none left) and the
// replayed record g (nil: none left) differ at the current position.
func (c *conformance) diverge(w, g *Record) {
	d := Divergence{Index: c.index}
	if w != nil {
		d.Want = renderRecord(*w)
	}
	if g != nil {
		d.Got = renderRecord(*g)
	}
	c.report.Divergences = append(c.report.Divergences, d)
}

// send checks one replayed logical send.
func (c *conformance) send(at sim.Time, data []byte) {
	if c.full() {
		return
	}
	w := c.want()
	if w == nil || w.Kind != recKindSend || w.AtNS != int64(at) || !hexEqual(w.Data, data) {
		c.diverge(w, &Record{Kind: recKindSend, AtNS: int64(at), Data: hex.EncodeToString(data)})
	}
	c.index++
}

// obs checks one replayed protocol event.
func (c *conformance) obs(ev stats.Event) {
	if c.full() {
		return
	}
	w := c.want()
	if w == nil || w.Kind != recKindObs || w.AtNS != int64(ev.At) || w.Event == nil || !sameEvent(w.Event, &ev) {
		e := ev
		c.diverge(w, &Record{Kind: recKindObs, AtNS: int64(ev.At), Event: &e})
	}
	c.index++
}

// finish reports the captured records the replay never got to.
func (c *conformance) finish() {
	for !c.full() {
		w := c.want()
		if w == nil {
			return
		}
		c.diverge(w, nil)
		c.index++
	}
}

// sameEvent compares the fields renderRecord prints (not At: the record
// carries the instant).
func sameEvent(a, b *stats.Event) bool {
	return a.Kind == b.Kind && a.Host == b.Host && a.Source == b.Source && a.Seq == b.Seq &&
		a.Round == b.Round && a.Expedited == b.Expedited && a.OwnRequests == b.OwnRequests &&
		a.Reschedules == b.Reschedules && a.Requestor == b.Requestor && a.Replier == b.Replier
}

// hexEqual reports whether s is exactly hex.EncodeToString(data).
func hexEqual(s string, data []byte) bool {
	const digits = "0123456789abcdef"
	if len(s) != 2*len(data) {
		return false
	}
	for i, b := range data {
		if s[2*i] != digits[b>>4] || s[2*i+1] != digits[b&0x0f] {
			return false
		}
	}
	return true
}

// renderRecord describes a send/obs record in a Divergence.
func renderRecord(r Record) string {
	switch r.Kind {
	case recKindSend:
		return fmt.Sprintf("send at=%d data=%s", r.AtNS, r.Data)
	case recKindObs:
		if r.Event == nil {
			return fmt.Sprintf("obs at=%d <nil>", r.AtNS)
		}
		ev := r.Event
		return fmt.Sprintf("obs at=%d kind=%s host=%d source=%d seq=%d round=%d exp=%v own=%d resched=%d req=%d rep=%d",
			r.AtNS, ev.Kind, ev.Host, ev.Source, ev.Seq, ev.Round, ev.Expedited,
			ev.OwnRequests, ev.Reschedules, ev.Requestor, ev.Replier)
	default:
		return fmt.Sprintf("%s at=%d", r.Kind, r.AtNS)
	}
}
