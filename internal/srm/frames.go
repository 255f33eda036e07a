package srm

import (
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// arena is a chunk allocator: it hands out the zeroed slots of one chunk
// after another, each slot exactly once. A slot is never reused, so a
// pointer to one stays valid for as long as anything holds it; a chunk
// is reclaimed when the last pointer into it is dropped. The first chunk
// is allocated on first use, so an arena nobody draws from costs nothing.
type arena[T any] struct{ free []T }

// next returns the next unused slot, starting a new chunk of the given
// length when the current one is spent.
func (a *arena[T]) next(chunk int) *T {
	if len(a.free) == 0 {
		a.free = make([]T, chunk)
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

// A frame co-allocates a packet with the message it carries: one slot
// per send instead of two objects.
type (
	dataFrame struct {
		pkt netsim.Packet
		msg DataMsg
	}
	requestFrame struct {
		pkt netsim.Packet
		msg RequestMsg
	}
	replyFrame struct {
		pkt netsim.Packet
		msg ReplyMsg
	}
	sessionFrame struct {
		pkt     netsim.Packet
		msg     SessionMsg
		adverts [inlineAdverts]Advert
	}
)

// Frames is one host's supply of outgoing packets: the only constructor
// of data, request, reply and session packets. Frames come from chunk
// arenas (see arena) and are never reused — deliveries still in flight
// (jitter, duplication, queuing), captures and anything else holding a
// *netsim.Packet keep pointing at memory nobody writes again. The zero
// value is ready to use.
type Frames struct {
	data    arena[dataFrame]
	request arena[requestFrame]
	reply   arena[replyFrame]
	session arena[sessionFrame]
	// echoes is the chunk session messages' echo lists are carved from.
	echoes []PeerEcho
}

// Data returns a payload packet carrying original packet seq of source's
// stream.
func (f *Frames) Data(source topology.NodeID, seq int) *netsim.Packet {
	fr := f.data.next(dataChunk)
	fr.msg = DataMsg{Source: source, Seq: seq}
	fr.pkt = netsim.Packet{Class: netsim.Payload, Msg: &fr.msg}
	return &fr.pkt
}

// Request returns a control packet carrying the repair request m.
func (f *Frames) Request(m RequestMsg) *netsim.Packet {
	fr := f.request.next(requestChunk)
	fr.msg = m
	fr.pkt = netsim.Packet{Class: netsim.Control, Msg: &fr.msg}
	return &fr.pkt
}

// Reply returns a payload packet carrying the repair reply m.
func (f *Frames) Reply(m ReplyMsg) *netsim.Packet {
	fr := f.reply.next(replyChunk)
	fr.msg = m
	fr.pkt = netsim.Packet{Class: netsim.Payload, Msg: &fr.msg}
	return &fr.pkt
}

// Session returns a session-class control packet and its message, sent
// by from at sentAt, for the caller to fill in: Highest is empty with
// room for inlineAdverts appends in the frame itself.
func (f *Frames) Session(from topology.NodeID, sentAt sim.Time) (*netsim.Packet, *SessionMsg) {
	fr := f.session.next(sessionChunk)
	fr.msg = SessionMsg{From: from, SentAt: sentAt, Highest: fr.adverts[:0]}
	fr.pkt = netsim.Packet{Class: netsim.Control, Session: true, Msg: &fr.msg}
	return &fr.pkt, &fr.msg
}

// echoList returns an empty echo list with room for n appends, carved
// from the echo chunk and handed out once like a frame.
func (f *Frames) echoList(n int) []PeerEcho {
	if len(f.echoes) < n {
		f.echoes = make([]PeerEcho, max(n, echoChunk))
	}
	list := f.echoes[:0:n]
	f.echoes = f.echoes[n:]
	return list
}
