package srm

import (
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// arena is a chunk allocator: it hands out the zeroed slots of one chunk
// after another, each slot exactly once; a chunk is reclaimed when the
// last pointer into it is dropped. It is the source of fresh slots behind
// the free lists that take frames and records back, so it allocates only
// while the in-flight peak is still growing. The first chunk is allocated
// on first use, so an arena nobody draws from costs nothing.
//
// Chunks start at firstChunk slots and double up to the caller's chunk
// length, so a host that draws a handful of slots pins a handful: a
// 1025-host group whose hosts each take their first loss at a different
// point of the run would otherwise grow the live heap by one full chunk
// per host across the run, and where the collector's cycles fall on that
// ramp would set the peak it reads.
type arena[T any] struct {
	free []T
	size int // length of the last chunk, 0 before the first
}

// firstChunk is the length of an arena's first chunk.
const firstChunk = 16

// next returns the next unused slot, starting a new chunk when the
// current one is spent: twice the last one's length, at most chunk.
func (a *arena[T]) next(chunk int) *T {
	if len(a.free) == 0 {
		a.size = min(max(2*a.size, firstChunk), chunk)
		a.free = make([]T, a.size)
	}
	p := &a.free[0]
	a.free = a.free[1:]
	return p
}

// Chunk lengths of the message-frame arenas, in frames: constants sized
// by measurement (DESIGN.md §17), not knobs. Every host owns one Frames,
// so a request, reply or session chunk's bytes are paid once per host
// that sends one: at 8 frames the 1025-host cache_overflow and 513-host
// wide_group benchmark workloads peak at or below the heap they had with
// one allocation per message, at 32 cache_overflow peaks 3 % above it.
// Data frames are drawn by stream sources only, hence the longer chunk.
const (
	dataChunk    = 64
	requestChunk = 8
	replyChunk   = 8
	sessionChunk = 8
	echoChunk    = 64
)

// inlineAdverts is the advert capacity co-allocated with each session
// frame; a sender advertising more streams allocates its list instead,
// so the bound is an allocation threshold, not a limit.
const inlineAdverts = 4

// A frame co-allocates a packet with the message it carries — one slot
// per send instead of two objects — and is the packet's netsim.Recycler:
// handed back, it goes onto its pool's free list, linked through next.
type frame[M any] struct {
	pkt  netsim.Packet
	msg  M
	next *frame[M]
	pool *framePool[M]
}

// Recycle implements netsim.Recycler.
func (fr *frame[M]) Recycle(*netsim.Packet) {
	fr.next, fr.pool.free = fr.pool.free, fr
}

// framePool supplies one kind of frame: the frames handed back first,
// then fresh slots from the chunk arena.
type framePool[M any] struct {
	free  *frame[M]
	arena arena[frame[M]]
}

// get returns a frame for the caller to overwrite, packet and message.
func (p *framePool[M]) get(chunk int) *frame[M] {
	if fr := p.free; fr != nil {
		p.free, fr.next = fr.next, nil
		return fr
	}
	fr := p.arena.next(chunk)
	fr.pool = p
	return fr
}

// sessionBody is a session frame's message plus inline room for its
// adverts.
type sessionBody struct {
	msg     SessionMsg
	adverts [inlineAdverts]Advert
}

// Frames is one host's supply of outgoing packets: the only constructor
// of data, request, reply and session packets. Every packet it builds is
// owned by its frame, which the sender hands back once the send is over —
// netsim after the packet's last delivery, the wire endpoint once it is
// encoded — and the next constructor call of that kind reuses it. Hosts
// keep nothing of a delivered packet (netsim.Host), so nothing reads a
// frame after it is handed back. Frames point back into their Frames,
// which must therefore not be copied once used. The zero value is ready
// to use.
type Frames struct {
	data    framePool[DataMsg]
	request framePool[RequestMsg]
	reply   framePool[ReplyMsg]
	session framePool[sessionBody]
	// echoes is the chunk session messages' echo lists are carved from.
	echoes []PeerEcho
}

// Data returns a payload packet carrying original packet seq of source's
// stream.
func (f *Frames) Data(source topology.NodeID, seq int) *netsim.Packet {
	fr := f.data.get(dataChunk)
	fr.msg = DataMsg{Source: source, Seq: seq}
	fr.pkt = netsim.Packet{Class: netsim.Payload, Msg: &fr.msg, Owner: fr}
	return &fr.pkt
}

// Request returns a control packet carrying the repair request m.
func (f *Frames) Request(m RequestMsg) *netsim.Packet {
	fr := f.request.get(requestChunk)
	fr.msg = m
	fr.pkt = netsim.Packet{Class: netsim.Control, Msg: &fr.msg, Owner: fr}
	return &fr.pkt
}

// Reply returns a payload packet carrying the repair reply m, offered
// to the member group by hop cohort: most of its deliveries are
// duplicates only the group's reply rule reads (Group.DeliverCohort).
func (f *Frames) Reply(m ReplyMsg) *netsim.Packet {
	fr := f.reply.get(replyChunk)
	fr.msg = m
	fr.pkt = netsim.Packet{Class: netsim.Payload, Cohort: true, Msg: &fr.msg, Owner: fr}
	return &fr.pkt
}

// Session returns a session-class control packet and its message, sent
// by from at sentAt and offered to the member group by hop cohort, for
// the caller to fill in: Highest and Echoes are
// empty, Highest with room for inlineAdverts appends in the frame itself.
// A reused frame keeps the arrays its lists last had.
func (f *Frames) Session(from topology.NodeID, sentAt sim.Time) (*netsim.Packet, *SessionMsg) {
	fr := f.session.get(sessionChunk)
	m := &fr.msg.msg
	highest := m.Highest[:0]
	if highest == nil {
		highest = fr.msg.adverts[:0]
	}
	*m = SessionMsg{From: from, SentAt: sentAt, Highest: highest, Echoes: m.Echoes[:0]}
	fr.pkt = netsim.Packet{Class: netsim.Control, Session: true, Cohort: true, Msg: m, Owner: fr}
	return &fr.pkt, m
}

// echoList returns an empty echo list for m with room for n appends: the
// array m's frame kept if it is large enough, else one carved from the
// echo chunk.
func (f *Frames) echoList(m *SessionMsg, n int) []PeerEcho {
	if cap(m.Echoes) >= n {
		return m.Echoes[:0]
	}
	if len(f.echoes) < n {
		f.echoes = make([]PeerEcho, max(n, echoChunk))
	}
	list := f.echoes[:0:n]
	f.echoes = f.echoes[n:]
	return list
}
