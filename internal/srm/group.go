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
// (DeliverCohort).
//
// For each such source it also owns the reply plane: one replyWord per
// (packet, member), a packet's row contiguous across the members. A
// reply flood's cohort it answers from dense rows too: every member
// hears every repair (§2.2), and at a member that holds the packet,
// never lost it and keeps no reply scheduled, which its head slot and
// its word show, a duplicate only pushes out the horizon in that word.
// The same rows make the release monitor's scan row-wise
// (ReleasableBelow), and they slide with its watermark (ReleaseThrough).
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
	// until some member opens a stream of it. planes is indexed by source
	// alike: its reply plane, created with its heads.
	heads  [][]streamHead
	planes []*replyPlane
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
// head, and opens it: st is a's live stream of that source. Its reply
// words are that column of the source's plane.
func (g *Group) place(a *Agent, st *streamState) {
	for int(st.source) >= len(g.heads) {
		g.heads = append(g.heads, nil)
		g.planes = append(g.planes, nil)
	}
	row := g.heads[st.source]
	if row == nil {
		row = make([]streamHead, g.members)
		g.heads[st.source] = row
		plane := newReplyPlane(g.members)
		g.planes[st.source] = &plane
	}
	c := int(g.col[a.id])
	st.head = &row[c]
	st.head.live = st
	st.plane, st.col = g.planes[st.source], c
}

// setPresent records whether a processes deliveries.
func (g *Group) setPresent(a *Agent, present bool) { g.present[g.col[a.id]] = present }

// detach moves st's head out of its group slot, which closes and reads
// zero, and clears its column of the plane: st is being discarded, and
// whatever pending event still reaches it must find its state in it,
// not in the slot its successor opens. Its reply words are not carried
// over: the Leave or Crash that precedes every detach cancelled each
// reply timer, and a detection pass reads none, so st is handed an
// empty private plane only to keep a stray write out of its successor's
// column.
func (st *streamState) detach() {
	if h := st.head; h != &st.own {
		st.own, *h = *h, streamHead{}
		st.head = &st.own
		st.plane.ClearColumn(st.col)
		st.ownPlane = newReplyPlane(1)
		st.plane, st.col = &st.ownPlane, 0
	}
}

// DeliverCohort implements netsim.CohortHost. It takes a session message
// estimating one-way distances, or a repair reply, sent to a cohort of
// members; a message naming a node outside the tree or a sequence number
// beyond MaxSeq, or a cohort with a host outside the group, it leaves to
// per-host delivery. It then goes host by host in cohort order, serving
// inline each present member for which the delivery would change
// nothing but one word: its distance to a session's sender
// (deliverSession), or its reply word for a reply's packet
// (deliverReply). Every other member's Deliver runs right there, in its
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

// deliverReply serves a reply cohort from the row of the reply's packet
// in its source's plane, which it creates: each present member other
// than the requestor that absorbsReply finds with nothing else to
// change is served there. A member's Deliver may grow the plane, so the
// row is looked up again after each. Every delivery of a reply pushes a
// horizon out, served or not, so the row is blocked for the release
// scan once up front. No member is served a packet below the plane's
// base, which every present member has released.
func (g *Group) deliverReply(now sim.Time, p *netsim.Packet, m *ReplyMsg, hosts []int32) bool {
	n := uint(len(g.col))
	if uint(m.Source) >= n || uint(m.Requestor) >= n || uint(m.Replier) >= n || uint(m.Seq) > MaxSeq {
		return false
	}
	var plane *replyPlane // nil while no member holds a stream of the source
	var heads []streamHead
	if int(m.Source) < len(g.planes) {
		plane, heads = g.planes[m.Source], g.heads[m.Source]
	}
	var words []replyWord
	if plane != nil && m.Seq >= plane.Base() {
		plane.block(m.Seq)
		plane.Ensure(m.Seq, 0)
		words = plane.Row(m.Seq)
	}
	dist := g.dist[int(m.Requestor)*g.members:]
	for _, id := range hosts {
		c := g.col[id]
		if words != nil && g.present[c] && id != int32(m.Requestor) && absorbsReply(now, m.Seq, &heads[c], &words[c], dist[c], g.d3[c]) {
			g.inlineReply++
			continue
		}
		g.agents[c].Deliver(now, p)
		if words != nil {
			words = plane.Row(m.Seq)
		}
	}
	return true
}

// absorbsReply serves a reply for seq at a present member other than
// the requestor, whose head slot of the source is h, reply word for the
// packet w, distance word to the requestor d and D3 d3, if all onReply
// would change there is the horizon: the packet lies at or above the
// stream's floor and below its cursor (classified, and no higher than
// any it knows of, so nothing is noted; a closed slot is zero, so it
// serves nothing) and was never lost (so it is held, and there is no
// recovery and no extension call), no reply is scheduled (nothing is
// cancelled) and d is an estimate (Distance counts no miss). It then
// pushes the horizon out as onReply does and reports true; otherwise it
// touches nothing.
func absorbsReply(now sim.Time, seq int, h *streamHead, w *replyWord, d time.Duration, d3 float64) bool {
	if seq < int(h.floor) || seq >= int(h.cursor) || *w&(lost|scheduled) != 0 || d < 0 {
		return false
	}
	w.extend(now.Add(sim.Scale(d, d3)))
	return true
}

// ReleasableBelow is the release monitor's scan for the source's
// stream, row-wise: the highest n ≤ limit such that no present member
// keeps a reply scheduled or pending (replyCell.blocked) for a packet
// below n, plus the words it read. The caller passes the smallest
// prefix the present members hold, so every row it reads is held by
// all of them, and it equals the minimum of the members' own scans
// (Agent.ReleasableBelow). It walks each packet's row and stops at the
// first blocked word of a present member; a scheduled word may hide an
// armed reply timer, which only the member's cell shows.
// It starts at the plane's rescan row, not its base: the rows below
// were releasable when the last scan passed them, a horizon only
// expires with time, and every write that could block one again lowers
// rescan. A member turning present blocks nothing either: its column
// was cleared when its old streams detached.
func (g *Group) ReleasableBelow(now sim.Time, source topology.NodeID, limit int) (n, visited int) {
	if int(source) >= len(g.planes) || g.planes[source] == nil {
		return limit, 0
	}
	plane, heads := g.planes[source], g.heads[source]
	for n = max(plane.Base(), plane.rescan); n < limit; n++ {
		row := plane.Row(n)
		if row == nil {
			// No member has written a word this far.
			plane.rescan = n
			return limit, visited
		}
		for c, w := range row {
			if (now.Before(w.horizon()) || w&scheduled != 0 && heads[c].armed(n)) && g.present[c] {
				plane.rescan = n
				return n, visited + c + 1
			}
		}
		visited += len(row)
	}
	plane.rescan = n
	return min(n, limit), visited
}

// ReleaseThrough discards the source's plane rows below n; a nil group
// holds none. The release monitor calls it with the members' own
// ReleaseThrough.
func (g *Group) ReleaseThrough(source topology.NodeID, n int) {
	if g != nil && int(source) < len(g.planes) && g.planes[source] != nil {
		g.planes[source].ReleaseThrough(n)
	}
}

// armed reports whether the slot's live stream keeps a reply timer armed
// for seq.
func (h *streamHead) armed(seq int) bool {
	if h.live == nil {
		return false
	}
	rs := h.live.replies.At(seq).rec
	return rs != nil && rs.timer.Active()
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
