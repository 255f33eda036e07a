package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
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

// codecEntry is one way into the packet codec: the one-shot wrappers,
// whose results the caller keeps, or a long-lived Encoder and
// PacketDecoder, whose results last until their next call.
type codecEntry struct {
	name   string
	encode func(p *netsim.Packet) ([]byte, error)
	decode func(data []byte) (*netsim.Packet, error)
}

func codecEntryPoints() []codecEntry {
	var (
		enc netsim.Encoder
		dec netsim.PacketDecoder
	)
	return []codecEntry{
		{
			name:   "EncodePacket/DecodePacket",
			encode: func(p *netsim.Packet) ([]byte, error) { return netsim.EncodePacket(nil, p) },
			decode: netsim.DecodePacket,
		},
		{
			name: "reused Encoder/PacketDecoder",
			encode: func(p *netsim.Packet) ([]byte, error) {
				enc.Reset(enc.Bytes()[:0])
				err := enc.Packet(p)
				// Copied out: the tests hold one encoding while making another.
				return bytes.Clone(enc.Bytes()), err
			},
			decode: dec.Decode,
		},
	}
}

// fixturePacket wraps a fixture message the way its sender would.
func fixturePacket(id uint64, msg any) *netsim.Packet {
	p := &netsim.Packet{ID: id, From: 2, To: topology.None, Mode: netsim.ModeMulticast, Msg: msg}
	if _, isSession := msg.(*srm.SessionMsg); isSession {
		p.Class = netsim.Control
		p.Session = true
	}
	return p
}

// TestProtocolMessagesRoundTrip encodes and decodes every fixture of
// every registered message type through both entry points, asserting
// structural equality and that re-encoding the decoded packet is
// byte-identical (the canonical-form property the replay oracle depends
// on). The reused decoder meets the fixtures in map order, so across runs
// every message type follows every other into the same scratch.
func TestProtocolMessagesRoundTrip(t *testing.T) {
	for _, codec := range codecEntryPoints() {
		for mt, msgs := range protocolFixtures() {
			for i, msg := range msgs {
				data, err := codec.encode(fixturePacket(uint64(i), msg))
				if err != nil {
					t.Fatalf("%s: type %d fixture %d: encode: %v", codec.name, mt, i, err)
				}
				got, err := codec.decode(data)
				if err != nil {
					t.Fatalf("%s: type %d fixture %d: decode: %v", codec.name, mt, i, err)
				}
				if !reflect.DeepEqual(got.Msg, msg) {
					t.Errorf("%s: type %d fixture %d: decoded %+v, want %+v", codec.name, mt, i, got.Msg, msg)
				}
				again, err := codec.encode(got)
				if err != nil {
					t.Fatalf("%s: type %d fixture %d: re-encode: %v", codec.name, mt, i, err)
				}
				if !bytes.Equal(data, again) {
					t.Errorf("%s: type %d fixture %d: re-encode differs\n  %x\n  %x", codec.name, mt, i, data, again)
				}
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
	rejected := map[string]*srm.SessionMsg{
		"Highest descending": {From: 1, Highest: []srm.Advert{{Source: 4}, {Source: 2}}},
		"Highest duplicate":  {From: 1, Highest: []srm.Advert{{Source: 4}, {Source: 4}}},
		"Highest None":       {From: 1, Highest: []srm.Advert{{Source: topology.None}}},
		"Echoes descending":  {From: 1, Echoes: []srm.PeerEcho{{Peer: 6}, {Peer: 3}}},
		"Echoes duplicate":   {From: 1, Echoes: []srm.PeerEcho{{Peer: 6}, {Peer: 6}}},
	}
	for _, codec := range codecEntryPoints() {
		encode := func(m *srm.SessionMsg) []byte {
			t.Helper()
			data, err := codec.encode(&netsim.Packet{From: 1, To: topology.None,
				Mode: netsim.ModeMulticast, Class: netsim.Control, Session: true, Msg: m})
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		if got := hex.EncodeToString(encode(msg)); got != want {
			t.Fatalf("%s: session encoding moved:\n  got  %s\n  want %s", codec.name, got, want)
		}
		for name, bad := range rejected {
			if _, err := codec.decode(encode(bad)); err == nil ||
				!strings.Contains(err.Error(), "not strictly ascending") {
				t.Errorf("%s: %s: decode error = %v, want a strictly-ascending rejection", codec.name, name, err)
			}
		}
		// A rejection part-way through a list leaves the reused decoder
		// fit for the next datagram.
		if got, err := codec.decode(encode(msg)); err != nil || !reflect.DeepEqual(got.Msg, msg) {
			t.Errorf("%s: after the rejections decoded %+v, %v, want %+v", codec.name, got, err, msg)
		}
	}
}

// amplifiers are well-formed up to a session list's length prefix, which
// claims more elements than the datagram goes on to hold: 65 536 of them
// with nothing after (11 bytes for Highest, 12 for Echoes), and one more
// than could fit at an element's fewest bytes in a datagram padded to
// the transport's 64 KB.
func amplifiers() map[string][]byte {
	head := []byte{netsim.CodecVersion, 0x03, 0, 0, 1, byte(srm.WireSession), 0, 0}
	echoes := append(bytes.Clone(head), 0)
	// claim appends the count to head and zero-pads the datagram to size.
	claim := func(head []byte, count, size int) []byte {
		data := binary.AppendUvarint(bytes.Clone(head), uint64(count))
		return append(data, make([]byte, size-len(data))...)
	}
	// What a 64 KB datagram has left after head and a three-byte count.
	left := func(head []byte) int { return maxDatagram - len(head) - 3 }
	return map[string][]byte{
		"Highest":       claim(head, 1<<16, 11),
		"Echoes":        claim(echoes, 1<<16, 12),
		"Highest 64 KB": claim(head, left(head)/2+1, maxDatagram),
		"Echoes 64 KB":  claim(echoes, left(echoes)/3+1, maxDatagram),
	}
}

// TestDecodeLengthCannotAmplify: a length prefix is believed only as far
// as the datagram's remaining bytes could hold that many elements, so
// hostile bytes allocate nothing to speak of (a dozen used to reserve a
// megabyte before the first element was read) and leave a long-lived
// decoder's scratch the size honest traffic made it.
func TestDecodeLengthCannotAmplify(t *testing.T) {
	// allocated reads the process-wide TotalAlloc as testing.AllocsPerRun
	// reads mallocs: with GOMAXPROCS at 1, and as the fewest bytes over
	// several calls, so a goroutine an earlier test left running cannot
	// add to the reading unless it allocates during every call.
	allocated := func(f func()) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		least := ^uint64(0)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	honest, err := netsim.EncodePacket(nil, fixturePacket(0, protocolFixtures()[srm.WireSession][1]))
	if err != nil {
		t.Fatal(err)
	}
	for list, data := range amplifiers() {
		var dec netsim.PacketDecoder
		scratch := func() (highest, echoes int) {
			t.Helper()
			p, err := dec.Decode(honest)
			if err != nil {
				t.Fatal(err)
			}
			m := p.Msg.(*srm.SessionMsg)
			return cap(m.Highest), cap(m.Echoes)
		}
		highest, echoes := scratch()
		for name, decode := range map[string]func([]byte) (*netsim.Packet, error){
			"DecodePacket": netsim.DecodePacket, "reused PacketDecoder": dec.Decode,
		} {
			var err error
			if grew := allocated(func() { _, err = decode(data) }); grew >= 4<<10 {
				t.Errorf("%s, %s: a %d-byte datagram allocated %d bytes", list, name, len(data), grew)
			}
			if err == nil || !strings.Contains(err.Error(), "collection length") {
				t.Errorf("%s, %s: decode error = %v, want the length refused", list, name, err)
			}
		}
		if h, e := scratch(); h != highest || e != echoes {
			t.Errorf("%s: scratch capacity moved from %d/%d to %d/%d across the reject", list, highest, echoes, h, e)
		}
	}
}

// TestPacketDecoderReuseAllocationFree: once a long-lived decoder and
// encoder have seen each message shape, a datagram costs no allocation
// to decode or to encode again — including a session message whose
// lists are empty, which decodes to nil lists without giving up the
// backing arrays the next full one needs.
func TestPacketDecoderReuseAllocationFree(t *testing.T) {
	var datagrams [][]byte
	for _, mt := range netsim.RegisteredMessageTypes() {
		for i, msg := range protocolFixtures()[mt] {
			data, err := netsim.EncodePacket(nil, fixturePacket(uint64(i), msg))
			if err != nil {
				t.Fatal(err)
			}
			datagrams = append(datagrams, data)
		}
	}
	var (
		dec netsim.PacketDecoder
		enc netsim.Encoder
	)
	allocs := testing.AllocsPerRun(100, func() {
		for _, data := range datagrams {
			p, err := dec.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			enc.Reset(enc.Bytes()[:0])
			if err := enc.Packet(p); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc.Bytes(), data) {
				t.Fatalf("re-encoded %x as %x", data, enc.Bytes())
			}
		}
	})
	if allocs != 0 {
		t.Errorf("decoding and re-encoding %d datagrams allocates %.1f objects, want 0", len(datagrams), allocs)
	}
}

// FuzzDecodePacket asserts the decoder never panics, that anything it
// accepts re-encodes to the exact input bytes — i.e. the set of valid
// encodings is canonical — and that a long-lived decoder is
// indistinguishable from a fresh one: every input also goes through a
// PacketDecoder that has just decoded some other seed packet (chosen by
// the input, so a failure reproduces), which must return the same error
// or a deeply equal packet, and through a reused Encoder.
func FuzzDecodePacket(f *testing.F) {
	var seeds [][]byte
	for _, mt := range netsim.RegisteredMessageTypes() {
		for _, msg := range protocolFixtures()[mt] {
			p := &netsim.Packet{From: 0, To: topology.None, Mode: netsim.ModeMulticast, Msg: msg}
			data, err := netsim.EncodePacket(nil, p)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, data)
			f.Add(data)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{netsim.CodecVersion})
	f.Add([]byte{netsim.CodecVersion, 0xFF, 0, 0, 0, 0})
	f.Add([]byte{netsim.CodecVersion, 0, 0x80, 0x00, 0, 0, 1})
	for _, data := range amplifiers() {
		f.Add(data)
	}
	var (
		reused netsim.PacketDecoder
		enc    netsim.Encoder
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New32a()
		h.Write(data)
		if _, err := reused.Decode(seeds[h.Sum32()%uint32(len(seeds))]); err != nil {
			t.Fatalf("seed packet does not decode: %v", err)
		}
		got, gotErr := reused.Decode(data)
		p, err := netsim.DecodePacket(data)
		if fmt.Sprint(err) != fmt.Sprint(gotErr) {
			t.Fatalf("fresh decoder: %v\nreused decoder: %v", err, gotErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(p, got) {
			t.Fatalf("fresh decoder: %+v (%+v)\nreused decoder: %+v (%+v)", p, p.Msg, got, got.Msg)
		}
		out, err := netsim.EncodePacket(nil, p)
		if err != nil {
			t.Fatalf("decoded packet %+v does not re-encode: %v", p, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted non-canonical encoding:\n  in:  %x\n  out: %x", data, out)
		}
		enc.Reset(enc.Bytes()[:0])
		if err := enc.Packet(got); err != nil {
			t.Fatalf("reused encoder: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), data) {
			t.Fatalf("reused encoder:\n  in:  %x\n  out: %x", data, enc.Bytes())
		}
	})
}
