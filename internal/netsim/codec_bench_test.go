package netsim_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cesrm/internal/lms"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// benchMessages holds one message per protocol wire type, its fields
// the magnitudes a run carries: sequence numbers in the thousands,
// instants tens of seconds in, distances tens of milliseconds.
func benchMessages() map[netsim.MsgType]any {
	at := sim.Time(41 * time.Second)
	return map[netsim.MsgType]any{
		srm.WireData: &srm.DataMsg{Source: 0, Seq: 4711},
		srm.WireSession: &srm.SessionMsg{
			From: 3, SentAt: at,
			Highest: []srm.Advert{{Source: 0, Highest: 4711}, {Source: 5, Highest: 88}},
			Echoes: []srm.PeerEcho{
				{Peer: 1, Echo: srm.Echo{PeerSentAt: at - sim.Time(time.Second), HeldFor: 230 * time.Millisecond}},
				{Peer: 7, Echo: srm.Echo{PeerSentAt: at - sim.Time(2*time.Second), HeldFor: 410 * time.Millisecond}},
			},
		},
		srm.WireRequest: &srm.RequestMsg{Source: 0, Seq: 4711, Requestor: 6,
			ReqDistToSource: 84 * time.Millisecond, Expedited: true, TurningPoint: 2},
		srm.WireReply: &srm.ReplyMsg{Source: 0, Seq: 4711, Replier: 4, Requestor: 6,
			ReqDistToSource: 84 * time.Millisecond, ReplierDistToRequestor: 31 * time.Millisecond},
		lms.WireNAK:    &lms.NAKMsg{Seq: 4711, Requestor: 6, TurningPoint: 2, OriginChild: 5},
		lms.WireRepair: &lms.RepairMsg{Seq: 4711, Replier: 4, Requestor: 6},
	}
}

// BenchmarkDecodePacket decodes one packet of each registered message
// type through a long-lived PacketDecoder, the wire node's receive path.
// A type with no message above (netsim's own test type) is benchmarked
// at its zero value.
func BenchmarkDecodePacket(b *testing.B) {
	msgs := benchMessages()
	for _, t := range netsim.RegisteredMessageTypes() {
		msg, ok := msgs[t]
		if !ok {
			msg = netsim.NewRegisteredMessage(t)
		}
		p := &netsim.Packet{ID: 90210, From: 4, To: topology.None, Mode: netsim.ModeMulticast, Msg: msg}
		data, err := netsim.EncodePacket(nil, p)
		if err != nil {
			b.Fatal(err)
		}
		name := strings.TrimPrefix(fmt.Sprintf("%T", msg), "*")
		b.Run(name, func(b *testing.B) {
			var dec netsim.PacketDecoder
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
