package srm

import (
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
		Decode: func(d *netsim.Decoder) any {
			return &DataMsg{Source: d.Node(), Seq: d.Int()}
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
		Decode: func(d *netsim.Decoder) any {
			return &RequestMsg{
				Source:          d.Node(),
				Seq:             d.Int(),
				Requestor:       d.Node(),
				ReqDistToSource: d.Duration(),
				Expedited:       d.Bool(),
				TurningPoint:    d.Node(),
			}
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
		Decode: func(d *netsim.Decoder) any {
			return &ReplyMsg{
				Source:                 d.Node(),
				Seq:                    d.Int(),
				Replier:                d.Node(),
				Requestor:              d.Node(),
				ReqDistToSource:        d.Duration(),
				ReplierDistToRequestor: d.Duration(),
				Expedited:              d.Bool(),
			}
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

// decodeSession rejects keys that are not strictly ascending (which
// also excludes None and duplicates): onSession's iteration order and
// the HighestFor/EchoFor binary searches depend on it.
func decodeSession(d *netsim.Decoder) any {
	m := &SessionMsg{From: d.Node(), SentAt: d.Time()}
	if n := d.Len(); n > 0 {
		m.Highest = make([]Advert, 0, n)
		prev := topology.None
		for i := 0; i < n; i++ {
			k := d.Node()
			if k <= prev {
				d.Fail("srm: session Highest keys not strictly ascending")
				return m
			}
			prev = k
			m.Highest = append(m.Highest, Advert{Source: k, Highest: d.Int()})
		}
	}
	if n := d.Len(); n > 0 {
		m.Echoes = make([]PeerEcho, 0, n)
		prev := topology.None
		for i := 0; i < n; i++ {
			k := d.Node()
			if k <= prev {
				d.Fail("srm: session Echoes keys not strictly ascending")
				return m
			}
			prev = k
			m.Echoes = append(m.Echoes, PeerEcho{Peer: k, Echo: Echo{PeerSentAt: d.Time(), HeldFor: d.Duration()}})
		}
	}
	return m
}
