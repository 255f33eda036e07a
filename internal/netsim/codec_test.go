package netsim

import (
	"strings"
	"testing"

	"cesrm/internal/topology"
)

// testWireMsg is a locally registered message type exercising every
// primitive. Protocol messages register in their own packages (which
// import netsim); these tests cover the packet framing itself.
type testWireMsg struct {
	A int
	B topology.NodeID
	C bool
}

const testWireType MsgType = 200

func init() {
	RegisterMessage(testWireType, (*testWireMsg)(nil), MsgCodec{
		Name: "netsim.testWireMsg",
		Encode: func(e *Encoder, msg any) {
			m := msg.(*testWireMsg)
			e.Int(m.A)
			e.Node(m.B)
			e.Bool(m.C)
		},
		Decode: func(d *Decoder, slot *any) any {
			m := Scratch[testWireMsg](slot)
			*m = testWireMsg{A: d.Int(), B: d.Node(), C: d.Bool()}
			return m
		},
	})
}

func TestPacketCodecRoundTrip(t *testing.T) {
	cases := []Packet{
		{ID: 0, From: 0, To: topology.None, Class: Payload, Mode: ModeMulticast,
			Msg: &testWireMsg{A: 7, B: 3, C: true}},
		{ID: 1 << 40, From: 1023, To: 5, Class: Control, Mode: ModeUnicast,
			Msg: &testWireMsg{A: -1, B: topology.None}},
		{ID: 42, From: 2, To: topology.None, Class: Control, Mode: ModeMulticast,
			Session: true, Msg: &testWireMsg{}},
		{ID: 9, From: 4, To: topology.None, Class: Payload, Mode: ModeSubcast,
			Msg: &testWireMsg{A: 1 << 50, B: 1, C: false}},
	}
	for i, want := range cases {
		data, err := EncodePacket(nil, &want)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := DecodePacket(data)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.ID != want.ID || got.From != want.From || got.To != want.To ||
			got.Class != want.Class || got.Mode != want.Mode || got.Session != want.Session {
			t.Fatalf("case %d: header mismatch: got %+v want %+v", i, got, want)
		}
		gm, wm := got.Msg.(*testWireMsg), want.Msg.(*testWireMsg)
		if *gm != *wm {
			t.Fatalf("case %d: msg mismatch: got %+v want %+v", i, gm, wm)
		}
		// Canonical: re-encoding the decoded packet is byte-identical.
		data2, err := EncodePacket(nil, got)
		if err != nil {
			t.Fatalf("case %d: re-encode: %v", i, err)
		}
		if string(data) != string(data2) {
			t.Fatalf("case %d: re-encode differs:\n  %x\n  %x", i, data, data2)
		}
	}
}

func TestEncodePacketRejectsUnregistered(t *testing.T) {
	type orphan struct{}
	_, err := EncodePacket(nil, &Packet{Msg: &orphan{}})
	if err == nil || !strings.Contains(err.Error(), "no wire codec") {
		t.Fatalf("err = %v, want unregistered-type error", err)
	}
}

func TestDecodePacketRejectsMalformed(t *testing.T) {
	good, err := EncodePacket(nil, &Packet{From: 1, To: topology.None, Mode: ModeMulticast,
		Msg: &testWireMsg{A: 5, B: 2, C: true}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"version only":   {CodecVersion},
		"bad version":    append([]byte{99}, good[1:]...),
		"reserved flags": {CodecVersion, 0xF0, 0, 0, 0, byte(testWireType)},
		"truncated head": good[:3],
		"truncated body": good[:len(good)-1],
		"unknown type":   {CodecVersion, 0, 0, 0, 0, 77},
		"trailing bytes": append(append([]byte{}, good...), 0),
		"bad bool":       append(append([]byte{}, good[:len(good)-1]...), 2),
	}
	for name, data := range cases {
		if _, err := DecodePacket(data); err == nil {
			t.Errorf("%s: decode accepted malformed input %x", name, data)
		}
	}
}

func TestDecoderLenBounded(t *testing.T) {
	var e Encoder
	e.Uvarint(maxDecodeElems + 1)
	d := &Decoder{buf: e.Bytes()}
	d.Len(1)
	if d.Err() == nil {
		t.Fatal("oversized collection length accepted")
	}
}

// TestDecoderLenBoundedByInput: a count of more elements than the bytes
// that remain could hold, at the fewest bytes an element encodes to, is
// refused at the prefix, before a codec could size a list by it.
func TestDecoderLenBoundedByInput(t *testing.T) {
	var e Encoder
	e.Uvarint(3)
	for i := 0; i < 5; i++ {
		e.Byte(0)
	}
	d := &Decoder{buf: e.Bytes()}
	if n := d.Len(2); n != 0 || d.Err() == nil {
		t.Fatalf("Len(2) = %d, %v with 5 bytes left after a count of 3, want it refused", n, d.Err())
	}
	e.Byte(0)
	d = &Decoder{buf: e.Bytes()}
	if n := d.Len(2); n != 3 || d.Err() != nil {
		t.Fatalf("Len(2) = %d, %v with 6 bytes left after a count of 3, want 3", n, d.Err())
	}
}

// TestPacketDecoderOwnsItsPacket: a PacketDecoder hands out the same
// packet and message every time, refilled — what Decode returned is good
// until the next Decode and no longer — while DecodePacket's results are
// the caller's; a rejected datagram leaves the decoder fit for the next;
// and a reused Encoder writes what EncodePacket writes.
func TestPacketDecoderOwnsItsPacket(t *testing.T) {
	first := Packet{ID: 1, From: 2, To: 3, Class: Control, Mode: ModeUnicast, Msg: &testWireMsg{A: 7, B: 3, C: true}}
	second := Packet{ID: 9, From: 4, To: topology.None, Mode: ModeMulticast, Session: true, Msg: &testWireMsg{A: -5}}
	var (
		enc Encoder
		dec PacketDecoder
	)
	encode := func(p *Packet) []byte {
		t.Helper()
		want, err := EncodePacket(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		enc.Reset(enc.Bytes()[:0])
		if err := enc.Packet(p); err != nil {
			t.Fatal(err)
		}
		if string(enc.Bytes()) != string(want) {
			t.Fatalf("reused Encoder wrote %x, EncodePacket %x", enc.Bytes(), want)
		}
		return want
	}
	same := func(got *Packet, want Packet) bool {
		g, w := *got, want
		g.Msg, w.Msg = nil, nil
		return g == w && *got.Msg.(*testWireMsg) == *want.Msg.(*testWireMsg)
	}

	a, err := dec.Decode(encode(&first))
	if err != nil || !same(a, first) {
		t.Fatalf("decoded %+v, %v, want %+v", a, err, first)
	}
	msg := a.Msg
	if _, err := dec.Decode(encode(&second)[:4]); err == nil {
		t.Fatal("truncated datagram accepted")
	}
	b, err := dec.Decode(encode(&second))
	if err != nil || !same(b, second) {
		t.Fatalf("decoded %+v, %v, want %+v", b, err, second)
	}
	if a != b || msg != b.Msg {
		t.Error("a PacketDecoder's second packet is not its first, refilled")
	}

	kept, err := DecodePacket(encode(&first))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePacket(encode(&second)); err != nil {
		t.Fatal(err)
	}
	if !same(kept, first) {
		t.Errorf("a later DecodePacket changed an earlier one's packet to %+v", kept)
	}
}

func TestPeekFlags(t *testing.T) {
	enc := func(p Packet) []byte {
		data, err := EncodePacket(nil, &p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	msg := &testWireMsg{}
	data := enc(Packet{Class: Payload, Mode: ModeMulticast, Msg: msg})
	if payload, session, ok := PeekFlags(data); !ok || !payload || session {
		t.Fatalf("payload packet: got payload=%v session=%v ok=%v", payload, session, ok)
	}
	data = enc(Packet{Class: Control, Session: true, Mode: ModeMulticast, Msg: msg})
	if payload, session, ok := PeekFlags(data); !ok || payload || !session {
		t.Fatalf("session packet: got payload=%v session=%v ok=%v", payload, session, ok)
	}
	if _, _, ok := PeekFlags([]byte{9, 9}); ok {
		t.Fatal("PeekFlags accepted a foreign version byte")
	}
	if _, _, ok := PeekFlags([]byte{CodecVersion}); ok {
		t.Fatal("PeekFlags accepted a one-byte input")
	}
}
