package srm

import (
	"fmt"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// Group is a simulated run's member group: its SRM agents, with the state
// a session flood reads laid out densely across them.
//
// It owns the distance plane: every member's one-way distance estimates,
// transposed — row = the node the estimate is to, column = the member
// holding it, -1 = no estimate yet (so a recorded zero stays
// distinguishable from "never seen"). Multicast is why: one flood makes
// every member look up, or record, its estimate to the same node — the
// requestor a reply names, the sender of a session message — and in
// this layout those accesses fall in one contiguous row instead of one
// table per member. Members share rows and only ever touch their own
// column's words.
//
// For each source some member holds a stream of, it keeps one head slot
// per member: the only home of that member's cursor, highestKnown and
// advertPending (see streamHead). With those and a present bit per
// member the group answers a session flood's hop cohort itself
// (DeliverCohort). A reply flood's cohort it answers from each member's
// own windows: every member hears every repair (§2.2), and at a member
// that holds the packet and never lost it a duplicate only pushes out
// the reply abstinence.
type Group struct {
	dist    []time.Duration
	members int
	// col is the column of the member at each node of the tree, -1 where
	// there is none; agents is the member at each column.
	col    []int32
	agents []*Agent
	// present is false while the member at that column is crashed or
	// absent, when its Deliver ignores every packet.
	present []bool
	// d3 is each member's reply-abstinence factor, Params.D3, which
	// adaptive timers never adjust.
	d3 []float64
	// heads is indexed by source, then column; a source's row is nil
	// until some member opens a stream of it.
	heads [][]streamHead
	// oneWay holds while every member estimates one-way distances, the
	// only mode whose session handling the group can answer for.
	oneWay bool
	// inline and inlineReply count the session and reply cohort
	// deliveries served without a Deliver call.
	inline, inlineReply uint64
}

var _ netsim.CohortHost = (*Group)(nil)

// NewGroup returns a group of members columns over a tree of nodes
// nodes, with every distance estimate unknown and no member placed.
func NewGroup(nodes, members int) *Group {
	col := make([]int32, nodes)
	for i := range col {
		col[i] = -1
	}
	return &Group{
		dist:    unknownDistances(nodes * members),
		members: members,
		col:     col,
		agents:  make([]*Agent, members),
		present: make([]bool, members),
		d3:      make([]float64, members),
		oneWay:  true,
	}
}

// unknownDistances returns n distance words, every one unknown.
func unknownDistances(n int) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = -1
	}
	return d
}

// Inline returns how many session cohort deliveries the group served
// without a Deliver call; a nil group served none.
func (g *Group) Inline() uint64 {
	if g == nil {
		return 0
	}
	return g.inline
}

// InlineReply returns how many reply cohort deliveries the group served
// without a Deliver call; a nil group served none.
func (g *Group) InlineReply() uint64 {
	if g == nil {
		return 0
	}
	return g.inlineReply
}

// UseGroup makes the agent g's member at column col: its distance table
// becomes that column of the plane, and the heads of the streams it
// opens from now on live in the group's slots. Like
// EnableAdaptiveTimers it must be called before the simulation starts,
// while the agent holds no stream; estimates already recorded stay
// behind. The caller gives every agent of the run its own column, and
// the agent must be the host attached at its node: the group hands it
// the packets it does not serve itself.
func (a *Agent) UseGroup(g *Group, col int) error {
	switch {
	case col < 0 || col >= g.members || len(g.col) != a.nodes:
		return fmt.Errorf("srm: host %d given column %d of a %d-member group over %d nodes, for a tree of %d",
			a.id, col, g.members, len(g.col), a.nodes)
	case g.agents[col] != nil:
		return fmt.Errorf("srm: host %d given column %d, already host %d's", a.id, col, g.agents[col].id)
	case g.col[a.id] >= 0 || a.group != nil:
		return fmt.Errorf("srm: host %d is already a group member", a.id)
	case a.streams != nil:
		return fmt.Errorf("srm: host %d joins a group holding stream state", a.id)
	}
	g.col[a.id], g.agents[col], g.present[col] = int32(col), a, !a.crashed && !a.absent
	g.d3[col] = a.initial.D3
	g.oneWay = g.oneWay && a.p.DistanceMode == DistOneWay
	a.dist, a.stride, a.group = g.dist[col:], int32(g.members), g
	return nil
}

// place makes the slot of st's source and a's column the home of st's
// head, and opens it: st is a's live stream of that source.
func (g *Group) place(a *Agent, st *streamState) {
	for int(st.source) >= len(g.heads) {
		g.heads = append(g.heads, nil)
	}
	row := g.heads[st.source]
	if row == nil {
		row = make([]streamHead, g.members)
		g.heads[st.source] = row
	}
	st.head = &row[g.col[a.id]]
	st.head.live = st
}

// setPresent records whether a processes deliveries.
func (g *Group) setPresent(a *Agent, present bool) { g.present[g.col[a.id]] = present }

// detach moves st's head out of its group slot, which closes: st is being
// discarded, and whatever pending event still reaches it must find its
// state in it, not in the slot its successor opens.
func (st *streamState) detach() {
	if h := st.head; h != &st.own {
		st.own, h.live = *h, nil
		st.head = &st.own
	}
}

// DeliverCohort implements netsim.CohortHost. It takes a session message
// estimating one-way distances, or a repair reply, sent to a cohort of
// members; a message naming a node outside the tree or a sequence number
// beyond MaxSeq, or a cohort with a host outside the group, it leaves to
// per-host delivery. It then goes host by host in cohort order, serving
// inline each present member for which the delivery would change
// nothing but one word: its distance to a session's sender
// (deliverSession), or its reply abstinence for a reply's packet
// (absorbsReply). Every other member's Deliver runs right there, in its
// turn, so per-host order, and with it engine sequence numbers, RNG
// draws and observer events, is exactly that of per-host delivery.
func (g *Group) DeliverCohort(now sim.Time, p *netsim.Packet, hosts []int32) bool {
	for _, id := range hosts {
		if g.col[id] < 0 {
			return false
		}
	}
	switch m := p.Msg.(type) {
	case *SessionMsg:
		return g.deliverSession(now, p, m, hosts)
	case *ReplyMsg:
		return g.deliverReply(now, p, m, hosts)
	}
	return false
}

// deliverSession serves a session cohort: a present member whose heads
// of every advertised source are open and quiet (streamHead.quiet) has
// its distance word to the sender written, all its onSession would
// change.
func (g *Group) deliverSession(now sim.Time, p *netsim.Packet, m *SessionMsg, hosts []int32) bool {
	if !g.oneWay || uint(m.From) >= uint(len(g.col)) {
		return false
	}
	for _, ad := range m.Highest {
		// A source no member holds a stream of has no slot to be open.
		if uint(ad.Source) >= uint(len(g.heads)) || g.heads[ad.Source] == nil || uint(ad.Highest) > MaxSeq {
			return false
		}
	}
	d, row := time.Duration(now.Sub(m.SentAt)), g.dist[int(m.From)*g.members:]
	for _, id := range hosts {
		c := g.col[id]
		if g.present[c] && g.quiet(m, c, topology.NodeID(id)) {
			row[c] = d
			g.inline++
			continue
		}
		g.agents[c].Deliver(now, p)
	}
	return true
}

// deliverReply serves a reply cohort: see absorbsReply.
func (g *Group) deliverReply(now sim.Time, p *netsim.Packet, m *ReplyMsg, hosts []int32) bool {
	n := uint(len(g.col))
	if uint(m.Source) >= n || uint(m.Requestor) >= n || uint(m.Replier) >= n || uint(m.Seq) > MaxSeq {
		return false
	}
	var heads []streamHead // nil while no member holds a stream of the source
	if int(m.Source) < len(g.heads) {
		heads = g.heads[m.Source]
	}
	row := g.dist[int(m.Requestor)*g.members:]
	for _, id := range hosts {
		c := g.col[id]
		if heads != nil && g.present[c] && id != int32(m.Requestor) && g.absorbsReply(now, m, &heads[c], row[c], g.d3[c]) {
			g.inlineReply++
			continue
		}
		g.agents[c].Deliver(now, p)
	}
	return true
}

// absorbsReply serves reply m at a present member other than the
// requestor, whose head slot of m's source is h, distance word to the
// requestor d and D3 d3, if all onReply would change there is the reply
// abstinence of m's packet: the slot is open (the member holds a live
// stream), the member holds the packet inside its window (no higher than
// any it knows of, so nothing is noted), never lost it (so no recovery
// and no extension call), keeps no scheduled reply for it (so nothing is
// cancelled) and has an estimate to the requestor (so Distance counts no
// miss). It then pushes the abstinence out as onReply does and reports
// true; otherwise it touches nothing.
func (g *Group) absorbsReply(now sim.Time, m *ReplyMsg, h *streamHead, d time.Duration, d3 float64) bool {
	st, seq := h.live, m.Seq
	if st == nil || d < 0 || seq > h.highestKnown {
		return false
	}
	if seq < st.received.Base() || !st.received.Has(seq) || st.losses.At(seq) != nil {
		return false
	}
	c := st.replies.Ensure(seq)
	if c.rec != nil {
		return false
	}
	if abstain := now.Add(sim.Scale(d, d3)); abstain.After(c.pendingUntil) {
		c.pendingUntil = abstain
	}
	return true
}

// quiet reports whether every advert of m finds column c's slot open and
// changes nothing in it; id is the member's node.
func (g *Group) quiet(m *SessionMsg, c int32, id topology.NodeID) bool {
	for _, ad := range m.Highest {
		h := &g.heads[ad.Source][c]
		if h.live == nil || !h.quiet(ad.Highest, ad.Source == id) {
			return false
		}
	}
	return true
}
