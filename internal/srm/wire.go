package srm

import (
	"slices"

	"cesrm/internal/netsim"
	"cesrm/internal/topology"
)

// Stable wire identifiers for SRM's message types. These are part of
// the cesrm-node wire format (netsim.CodecVersion); never renumber.
const (
	// WireData identifies DataMsg.
	WireData netsim.MsgType = 1
	// WireSession identifies SessionMsg.
	WireSession netsim.MsgType = 2
	// WireRequest identifies RequestMsg.
	WireRequest netsim.MsgType = 3
	// WireReply identifies ReplyMsg.
	WireReply netsim.MsgType = 4
)

func init() {
	netsim.RegisterMessage(WireData, (*DataMsg)(nil), netsim.MsgCodec{
		Name: "srm.DataMsg",
		Encode: func(e *netsim.Encoder, msg any) {
			m := msg.(*DataMsg)
			e.Node(m.Source)
			e.Int(m.Seq)
		},
		Decode: func(d *netsim.Decoder, slot *any) any {
			m := netsim.Scratch[DataMsg](slot)
			*m = DataMsg{Source: d.Node(), Seq: d.Int()}
			return m
		},
	})
	netsim.RegisterMessage(WireSession, (*SessionMsg)(nil), netsim.MsgCodec{
		Name:   "srm.SessionMsg",
		Encode: encodeSession,
		Decode: decodeSession,
	})
	netsim.RegisterMessage(WireRequest, (*RequestMsg)(nil), netsim.MsgCodec{
		Name: "srm.RequestMsg",
		Encode: func(e *netsim.Encoder, msg any) {
			m := msg.(*RequestMsg)
			e.Node(m.Source)
			e.Int(m.Seq)
			e.Node(m.Requestor)
			e.Duration(m.ReqDistToSource)
			e.Bool(m.Expedited)
			e.Node(m.TurningPoint)
		},
		Decode: func(d *netsim.Decoder, slot *any) any {
			m := netsim.Scratch[RequestMsg](slot)
			*m = RequestMsg{
				Source:          d.Node(),
				Seq:             d.Int(),
				Requestor:       d.Node(),
				ReqDistToSource: d.Duration(),
				Expedited:       d.Bool(),
				TurningPoint:    d.Node(),
			}
			return m
		},
	})
	netsim.RegisterMessage(WireReply, (*ReplyMsg)(nil), netsim.MsgCodec{
		Name: "srm.ReplyMsg",
		Encode: func(e *netsim.Encoder, msg any) {
			m := msg.(*ReplyMsg)
			e.Node(m.Source)
			e.Int(m.Seq)
			e.Node(m.Replier)
			e.Node(m.Requestor)
			e.Duration(m.ReqDistToSource)
			e.Duration(m.ReplierDistToRequestor)
			e.Bool(m.Expedited)
		},
		Decode: func(d *netsim.Decoder, slot *any) any {
			m := netsim.Scratch[ReplyMsg](slot)
			*m = ReplyMsg{
				Source:                 d.Node(),
				Seq:                    d.Int(),
				Replier:                d.Node(),
				Requestor:              d.Node(),
				ReqDistToSource:        d.Duration(),
				ReplierDistToRequestor: d.Duration(),
				Expedited:              d.Bool(),
			}
			return m
		},
	})
}

// encodeSession writes a SessionMsg's adverts and echoes as held: the
// ascending-NodeID contract on the slices makes the encoding canonical
// — the same message always encodes to the same bytes, the property the
// wire mode's conformance oracle relies on. A nil slice encodes as
// length zero; decode returns nil for length zero, so decode∘encode is
// idempotent even though encode(nil) == encode(empty).
func encodeSession(e *netsim.Encoder, msg any) {
	m := msg.(*SessionMsg)
	e.Node(m.From)
	e.Time(m.SentAt)
	e.Uvarint(uint64(len(m.Highest)))
	for _, ad := range m.Highest {
		e.Node(ad.Source)
		e.Int(ad.Highest)
	}
	e.Uvarint(uint64(len(m.Echoes)))
	for _, pe := range m.Echoes {
		e.Node(pe.Peer)
		e.Time(pe.PeerSentAt)
		e.Duration(pe.HeldFor)
	}
}

// sessionScratch is decodeSession's decoder slot: the message it hands
// out and the lists' backing arrays, held apart from the message so that
// a list that decodes empty can be nil in the message, as it always has
// been, without the arrays being dropped for the next one.
type sessionScratch struct {
	msg     SessionMsg
	highest []Advert
	echoes  []PeerEcho
}

// The fewest bytes encodeSession writes for one list element, a byte a
// varint: an Advert is a node and an int, a PeerEcho a node, a time and
// a duration.
const (
	advertMinBytes = 2
	echoMinBytes   = 3
)

// decodeSession rejects keys that are not strictly ascending (which
// also excludes None and duplicates): onSession's iteration order and
// the HighestFor/EchoFor binary searches depend on it. Decoder.Len has
// already refused a count of elements the rest of the datagram could not
// hold, so sizing a list by it grows the scratch no further than an
// accepted datagram of that size could: eight bytes for each of its own.
func decodeSession(d *netsim.Decoder, slot *any) any {
	s := netsim.Scratch[sessionScratch](slot)
	m := &s.msg
	*m = SessionMsg{From: d.Node(), SentAt: d.Time()}
	if n := d.Len(advertMinBytes); n > 0 {
		s.highest = slices.Grow(s.highest[:0], n)
		prev := topology.None
		for i := 0; i < n; i++ {
			k := d.Node()
			if k <= prev {
				d.Fail("srm: session Highest keys not strictly ascending")
				return m
			}
			prev = k
			s.highest = append(s.highest, Advert{Source: k, Highest: d.Int()})
		}
		m.Highest = s.highest
	}
	if n := d.Len(echoMinBytes); n > 0 {
		s.echoes = slices.Grow(s.echoes[:0], n)
		prev := topology.None
		for i := 0; i < n; i++ {
			k := d.Node()
			if k <= prev {
				d.Fail("srm: session Echoes keys not strictly ascending")
				return m
			}
			prev = k
			s.echoes = append(s.echoes, PeerEcho{Peer: k, Echo: Echo{PeerSentAt: d.Time(), HeldFor: d.Duration()}})
		}
		m.Echoes = s.echoes
	}
	return m
}
