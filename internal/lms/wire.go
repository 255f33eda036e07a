package lms

import "cesrm/internal/netsim"

// Stable wire identifiers for LMS's message types (the 1–7 range is
// reserved for SRM/CESRM). Never renumber.
const (
	// WireNAK identifies NAKMsg.
	WireNAK netsim.MsgType = 8
	// WireRepair identifies RepairMsg.
	WireRepair netsim.MsgType = 9
)

func init() {
	netsim.RegisterMessage(WireNAK, (*NAKMsg)(nil), netsim.MsgCodec{
		Name: "lms.NAKMsg",
		Encode: func(e *netsim.Encoder, msg any) {
			m := msg.(*NAKMsg)
			e.Int(m.Seq)
			e.Node(m.Requestor)
			e.Node(m.TurningPoint)
			e.Node(m.OriginChild)
		},
		Decode: func(d *netsim.Decoder, slot *any) any {
			m := netsim.Scratch[NAKMsg](slot)
			*m = NAKMsg{
				Seq:          d.Int(),
				Requestor:    d.Node(),
				TurningPoint: d.Node(),
				OriginChild:  d.Node(),
			}
			return m
		},
	})
	netsim.RegisterMessage(WireRepair, (*RepairMsg)(nil), netsim.MsgCodec{
		Name: "lms.RepairMsg",
		Encode: func(e *netsim.Encoder, msg any) {
			m := msg.(*RepairMsg)
			e.Int(m.Seq)
			e.Node(m.Replier)
			e.Node(m.Requestor)
		},
		Decode: func(d *netsim.Decoder, slot *any) any {
			m := netsim.Scratch[RepairMsg](slot)
			*m = RepairMsg{
				Seq:       d.Int(),
				Replier:   d.Node(),
				Requestor: d.Node(),
			}
			return m
		},
	})
}
