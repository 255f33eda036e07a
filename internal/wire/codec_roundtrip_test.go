package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"time"

	"cesrm/internal/lms"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// protocolFixtures returns at least one representative message per
// registered wire type, including zero values and boundary shapes.
// Importing lms above pulls in its registrations, so together with the
// wire package's own srm/core imports this file links every protocol
// message type the node can emit.
func protocolFixtures() map[netsim.MsgType][]any {
	return map[netsim.MsgType][]any{
		srm.WireData: {
			&srm.DataMsg{},
			&srm.DataMsg{Source: 0, Seq: 1 << 30},
		},
		srm.WireSession: {
			&srm.SessionMsg{From: 3, SentAt: sim.Time(12345)},
			&srm.SessionMsg{
				From:   0,
				SentAt: sim.Time(time.Hour),
				Highest: []srm.Advert{
					{Source: 0, Highest: 41}, {Source: 3, Highest: 0}, {Source: 7, Highest: 99},
				},
				Echoes: []srm.PeerEcho{
					{Peer: 1, Echo: srm.Echo{PeerSentAt: sim.Time(77), HeldFor: 3 * time.Millisecond}},
					{Peer: 5},
				},
			},
		},
		srm.WireRequest: {
			&srm.RequestMsg{Source: 0, Seq: 9, Requestor: 4,
				ReqDistToSource: 80 * time.Millisecond, TurningPoint: topology.None},
			&srm.RequestMsg{Source: 2, Seq: 0, Requestor: 1,
				Expedited: true, TurningPoint: 6},
		},
		srm.WireReply: {
			&srm.ReplyMsg{Source: 0, Seq: 4, Replier: 2, Requestor: 5,
				ReqDistToSource:        120 * time.Millisecond,
				ReplierDistToRequestor: 40 * time.Millisecond},
			&srm.ReplyMsg{Source: 1, Seq: 0, Replier: 0, Requestor: 0, Expedited: true},
		},
		lms.WireNAK: {
			&lms.NAKMsg{Seq: 3, Requestor: 4, TurningPoint: 1, OriginChild: 2},
			&lms.NAKMsg{TurningPoint: topology.None, OriginChild: topology.None,
				Requestor: topology.None},
		},
		lms.WireRepair: {
			&lms.RepairMsg{Seq: 17, Replier: 0, Requestor: 6},
			&lms.RepairMsg{},
		},
	}
}

// TestCodecCoversEveryRegisteredType fails when a protocol package
// registers a wire message type this suite has no fixture for.
func TestCodecCoversEveryRegisteredType(t *testing.T) {
	fixtures := protocolFixtures()
	for _, mt := range netsim.RegisteredMessageTypes() {
		if len(fixtures[mt]) == 0 {
			t.Errorf("registered wire type %d (%T) has no round-trip fixture",
				mt, netsim.NewRegisteredMessage(mt))
		}
	}
}

// TestProtocolMessagesRoundTrip encodes and decodes every fixture of
// every registered message type, asserting structural equality and that
// re-encoding the decoded packet is byte-identical (the canonical-form
// property the replay oracle depends on).
func TestProtocolMessagesRoundTrip(t *testing.T) {
	for mt, msgs := range protocolFixtures() {
		for i, msg := range msgs {
			p := &netsim.Packet{
				ID:   uint64(i),
				From: 2,
				To:   topology.None,
				Mode: netsim.ModeMulticast,
				Msg:  msg,
			}
			if _, isSession := msg.(*srm.SessionMsg); isSession {
				p.Class = netsim.Control
				p.Session = true
			}
			data, err := netsim.EncodePacket(nil, p)
			if err != nil {
				t.Fatalf("type %d fixture %d: encode: %v", mt, i, err)
			}
			got, err := netsim.DecodePacket(data)
			if err != nil {
				t.Fatalf("type %d fixture %d: decode: %v", mt, i, err)
			}
			if !reflect.DeepEqual(got.Msg, msg) {
				t.Errorf("type %d fixture %d: decoded %+v, want %+v", mt, i, got.Msg, msg)
			}
			again, err := netsim.EncodePacket(nil, got)
			if err != nil {
				t.Fatalf("type %d fixture %d: re-encode: %v", mt, i, err)
			}
			if !bytes.Equal(data, again) {
				t.Errorf("type %d fixture %d: re-encode differs\n  %x\n  %x", mt, i, data, again)
			}
		}
	}
}

// TestSessionMsgEncodingIsCanonical pins the session encoding to the
// bytes the map-based representation produced (the hex literal was
// generated at the last commit that had it, which sorted keys on
// encode): the slices are written as held, so the wire format did not
// move. The decoder accepts exactly the strictly ascending form — the
// receiver's iteration order and binary searches depend on it.
func TestSessionMsgEncodingIsCanonical(t *testing.T) {
	msg := &srm.SessionMsg{
		From:   1,
		SentAt: sim.Time(999),
		Highest: []srm.Advert{
			{Source: 0, Highest: 3}, {Source: 2, Highest: 5}, {Source: 4, Highest: 2},
			{Source: 7, Highest: 4}, {Source: 9, Highest: 1},
		},
		Echoes: []srm.PeerEcho{
			{Peer: 3, Echo: srm.Echo{PeerSentAt: 2}},
			{Peer: 6, Echo: srm.Echo{PeerSentAt: 3}},
			{Peer: 8, Echo: srm.Echo{PeerSentAt: 1}},
		},
	}
	const want = "01030002010202ce0f050006040a08040e081202030604000c0600100200"
	encode := func(m *srm.SessionMsg) []byte {
		t.Helper()
		data, err := netsim.EncodePacket(nil, &netsim.Packet{From: 1, To: topology.None,
			Mode: netsim.ModeMulticast, Class: netsim.Control, Session: true, Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if got := hex.EncodeToString(encode(msg)); got != want {
		t.Fatalf("session encoding moved:\n  got  %s\n  want %s", got, want)
	}

	rejected := map[string]*srm.SessionMsg{
		"Highest descending": {From: 1, Highest: []srm.Advert{{Source: 4}, {Source: 2}}},
		"Highest duplicate":  {From: 1, Highest: []srm.Advert{{Source: 4}, {Source: 4}}},
		"Highest None":       {From: 1, Highest: []srm.Advert{{Source: topology.None}}},
		"Echoes descending":  {From: 1, Echoes: []srm.PeerEcho{{Peer: 6}, {Peer: 3}}},
		"Echoes duplicate":   {From: 1, Echoes: []srm.PeerEcho{{Peer: 6}, {Peer: 6}}},
	}
	for name, bad := range rejected {
		if _, err := netsim.DecodePacket(encode(bad)); err == nil ||
			!strings.Contains(err.Error(), "not strictly ascending") {
			t.Errorf("%s: decode error = %v, want a strictly-ascending rejection", name, err)
		}
	}
}

// FuzzDecodePacket asserts the decoder never panics, and that anything
// it accepts re-encodes to the exact input bytes — i.e. the set of
// valid encodings is canonical.
func FuzzDecodePacket(f *testing.F) {
	for _, msgs := range protocolFixtures() {
		for _, msg := range msgs {
			p := &netsim.Packet{From: 0, To: topology.None, Mode: netsim.ModeMulticast, Msg: msg}
			if data, err := netsim.EncodePacket(nil, p); err == nil {
				f.Add(data)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{netsim.CodecVersion})
	f.Add([]byte{netsim.CodecVersion, 0xFF, 0, 0, 0, 0})
	f.Add([]byte{netsim.CodecVersion, 0, 0x80, 0x00, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := netsim.DecodePacket(data)
		if err != nil {
			return
		}
		out, err := netsim.EncodePacket(nil, p)
		if err != nil {
			t.Fatalf("decoded packet %+v does not re-encode: %v", p, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted non-canonical encoding:\n  in:  %x\n  out: %x", data, out)
		}
	})
}
