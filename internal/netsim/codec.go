// Wire codec for netsim packets.
//
// In simulation a Packet's Msg field is an in-memory pointer shared by
// every recipient. The wire mode (internal/wire) sends packets across
// real UDP sockets, so Msg needs a deterministic, versioned binary
// encoding. Determinism is load-bearing: the conformance oracle replays
// a captured run through the simulator and compares the byte stream a
// node sent, so encoding the same message twice must yield identical
// bytes (maps are encoded in sorted key order).
//
// The protocol message types live in internal/srm and internal/lms,
// which import netsim — so netsim cannot reference them. Instead the
// protocol packages register their message codecs at init time via
// RegisterMessage, keyed by a stable one-byte wire type.
package netsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// CodecVersion is the wire-format version emitted by EncodePacket and
// accepted by DecodePacket. Bump it on any incompatible layout change.
const CodecVersion = 1

// MsgType is the stable one-byte identifier of a protocol message type
// on the wire. Values are assigned by the protocol packages when they
// register their codecs; they must never be reused or renumbered.
type MsgType uint8

// maxDecodeElems caps decoded collection lengths so a malformed length
// prefix cannot force a huge allocation. The largest tree netsim
// supports densely is 1024 nodes; session maps are bounded by group
// size, so 1<<16 leaves ample headroom.
const maxDecodeElems = 1 << 16

// MsgCodec encodes and decodes one registered protocol message type.
type MsgCodec struct {
	// Name identifies the type in diagnostics.
	Name string
	// Encode appends msg's binary form. It may assume msg is of the
	// registered type (Encoder.Packet dispatches on reflect.Type).
	Encode func(e *Encoder, msg any)
	// Decode parses one message. Implementations must consume exactly
	// what Encode produced and report malformed input via d.Fail (or by
	// reading past the end, which the decoder tracks) — never panic.
	//
	// Reuse contract: a non-nil slot is this codec's own on a long-lived
	// PacketDecoder — *slot is whatever the codec left there the last
	// time it ran on that decoder (nil the first time; see Scratch) — so
	// Decode may return that message refilled instead of a new one: the
	// caller owns the result only until the decoder's next packet. A nil
	// slot (DecodePacket) asks for a message the caller may keep. Either
	// way the result must not alias d's buffer, which belongs to whoever
	// called the decoder, and must be the same value (an empty list is
	// nil, never zero-length).
	Decode func(d *Decoder, slot *any) any

	// slot indexes PacketDecoder.slots.
	slot int
}

// Scratch returns the *T a codec keeps in its decoder slot, storing a
// new zero T there on first use; with no slot it returns a new T.
func Scratch[T any](slot *any) *T {
	if slot == nil {
		return new(T)
	}
	if s, ok := (*slot).(*T); ok {
		return s
	}
	s := new(T)
	*slot = s
	return s
}

// msgRegistry maps wire types to codecs, and Go types to wire types.
var (
	msgCodecs   [256]*MsgCodec
	msgTypeOf   = map[reflect.Type]MsgType{}
	msgRegOrder []MsgType
)

// RegisterMessage registers the codec for the message type exemplified
// by prototype (a pointer, e.g. (*DataMsg)(nil)) under wire type t.
// It panics on a duplicate wire type or Go type: registration happens
// in package init functions, where a collision is a programming error.
func RegisterMessage(t MsgType, prototype any, c MsgCodec) {
	if msgCodecs[t] != nil {
		panic(fmt.Sprintf("netsim: wire message type %d registered twice (%s, %s)",
			t, msgCodecs[t].Name, c.Name))
	}
	rt := reflect.TypeOf(prototype)
	if _, dup := msgTypeOf[rt]; dup {
		panic(fmt.Sprintf("netsim: Go type %v registered twice", rt))
	}
	if c.Encode == nil || c.Decode == nil {
		panic(fmt.Sprintf("netsim: message codec %q missing Encode or Decode", c.Name))
	}
	cc := c
	cc.slot = len(msgRegOrder)
	msgCodecs[t] = &cc
	msgTypeOf[rt] = t
	msgRegOrder = append(msgRegOrder, t)
}

// RegisteredMessageTypes returns the wire types registered so far, in
// registration order. Tests use it to cover every type.
func RegisteredMessageTypes() []MsgType {
	out := make([]MsgType, len(msgRegOrder))
	copy(out, msgRegOrder)
	return out
}

// NewRegisteredMessage returns a zero value of the Go type registered
// under t (as produced by Decode), or nil if t is unregistered. Tests
// use it to build round-trip fixtures generically.
func NewRegisteredMessage(t MsgType) any {
	c := msgCodecs[t]
	if c == nil {
		return nil
	}
	for rt, wt := range msgTypeOf {
		if wt == t {
			return reflect.New(rt.Elem()).Interface()
		}
	}
	return nil
}

// Encoder appends primitive values in the wire format: unsigned and
// zig-zag varints over a byte buffer. All integer-like fields use
// varints so the format has no alignment or endianness concerns. The
// zero value appends to a nil buffer; a long-lived Encoder is pointed
// at its caller's scratch with Reset before each packet.
type Encoder struct {
	buf []byte
}

// Reset points e at buf: what follows is appended to it.
func (e *Encoder) Reset(buf []byte) { e.buf = buf }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed (zig-zag) varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Node appends a topology.NodeID (None = -1 encodes fine as zig-zag).
func (e *Encoder) Node(id topology.NodeID) { e.Varint(int64(id)) }

// Duration appends a time.Duration in nanoseconds.
func (e *Encoder) Duration(d time.Duration) { e.Varint(int64(d)) }

// Time appends a sim.Time in nanoseconds since the run epoch.
func (e *Encoder) Time(t sim.Time) { e.Varint(int64(t)) }

// Decoder reads the Encoder's format. It is panic-free by construction:
// after the first error every read returns a zero value, and Err
// reports what went wrong.
type Decoder struct {
	buf []byte
	off int
	err error
}

// Fail records a decode error (first error wins).
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uvarint reads an unsigned varint. Non-minimal encodings (a final
// zero continuation group, e.g. 0x80 0x00 for 0) are rejected so that
// decoding stays the exact inverse of encoding.
func (d *Decoder) Uvarint() uint64 { return d.uvarint("truncated or non-minimal uvarint") }

// Varint reads a signed (zig-zag) varint, rejecting non-minimal
// encodings like Uvarint.
func (d *Decoder) Varint() int64 {
	u := d.uvarint("truncated or non-minimal varint")
	return int64(u>>1) ^ -int64(u&1)
}

// uvarint is what Uvarint and Varint call: a one-byte fast path, then
// the one minimal-varint loop. It accepts exactly what binary.Uvarint
// does, less the encodings whose last byte is a zero continuation
// group; what describes a failure in the error. It does not inline, so
// Uvarint and Varint, a call to it each, inline at every field read.
func (d *Decoder) uvarint(what string) uint64 {
	if d.err == nil && d.off < len(d.buf) {
		buf := d.buf[d.off:]
		if b := buf[0]; b < 0x80 {
			d.off++
			return uint64(b)
		}
		// The bound on i keeps every shift below 64, so the compiler
		// emits no shift-overflow check; byte 0 is a continuation byte.
		var v uint64
		for i := 0; i < len(buf) && i < binary.MaxVarintLen64; i++ {
			b := buf[i]
			v |= uint64(b&0x7f) << (7 * i)
			if b < 0x80 {
				if b == 0 || i == binary.MaxVarintLen64-1 && b > 1 {
					break // not minimal, or past 64 bits
				}
				d.off += i + 1
				return v
			}
		}
	}
	if d.err == nil {
		d.err = &readError{what: what, off: d.off}
	}
	return 0
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.off < len(d.buf) && d.err == nil {
		b := d.buf[d.off]
		d.off++
		return b
	}
	if d.err == nil {
		d.err = &readError{what: "truncated input", off: d.off}
	}
	return 0
}

// readError is a failed primitive read. Its text is formatted only when
// read, so recording one makes no call and Byte stays inlinable.
type readError struct {
	what string
	off  int
}

func (e *readError) Error() string {
	return fmt.Sprintf("netsim: %s at offset %d", e.what, e.off)
}

// Bool reads a bool, rejecting anything but 0 or 1 so that decoding is
// the exact inverse of encoding (re-encoding a decoded message must be
// byte-identical).
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if b > 1 {
		d.Fail("netsim: invalid bool byte %d", b)
		return false
	}
	return b == 1
}

// Int reads an int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.Fail("netsim: int out of range: %d", v)
		return 0
	}
	return int(v)
}

// Len reads the length of a collection whose elements each encode to at
// least elemBytes bytes, bounding it so malformed input cannot force a
// huge allocation: by maxDecodeElems, and by how many such elements the
// bytes left to read could hold — a list the input could not back is
// rejected before a codec sizes anything by it.
func (d *Decoder) Len(elemBytes int) int {
	v := d.Uvarint()
	if v > maxDecodeElems {
		d.Fail("netsim: collection length %d exceeds limit %d", v, maxDecodeElems)
		return 0
	}
	if v > uint64(d.Remaining()/elemBytes) {
		d.Fail("netsim: collection length %d exceeds what the %d bytes that remain could hold", v, d.Remaining())
		return 0
	}
	return int(v)
}

// Node reads a topology.NodeID.
func (d *Decoder) Node() topology.NodeID {
	v := d.Varint()
	if v < int64(topology.None) || v > math.MaxInt32 {
		d.Fail("netsim: node id out of range: %d", v)
		return topology.None
	}
	return topology.NodeID(v)
}

// Duration reads a time.Duration.
func (d *Decoder) Duration() time.Duration { return time.Duration(d.Varint()) }

// Time reads a sim.Time.
func (d *Decoder) Time() sim.Time { return sim.Time(d.Varint()) }

// Packet header flag layout (byte 1 of the encoding).
const (
	flagSession   = 1 << 0
	flagClassCtrl = 1 << 1
	flagModeShift = 2 // bits 2-3: Mode
	flagModeMask  = 3 << flagModeShift
	flagUnused    = ^byte(flagSession | flagClassCtrl | flagModeMask)
)

// Packet appends p's versioned binary form. The layout is:
//
//	byte    version (CodecVersion)
//	byte    flags: bit0 Session, bit1 Class==Control, bits2-3 Mode
//	uvarint ID
//	varint  From
//	varint  To
//	byte    MsgType
//	...     message payload (registered codec)
//
// It returns an error, having appended nothing, if p.Msg's type has no
// registered codec.
func (e *Encoder) Packet(p *Packet) error {
	t, ok := msgTypeOf[reflect.TypeOf(p.Msg)]
	if !ok {
		return fmt.Errorf("netsim: no wire codec registered for message type %T", p.Msg)
	}
	if p.Mode < ModeMulticast || p.Mode > ModeSubcast {
		return fmt.Errorf("netsim: cannot encode packet with mode %v", p.Mode)
	}
	e.Byte(CodecVersion)
	var flags byte
	if p.Session {
		flags |= flagSession
	}
	if p.Class == Control {
		flags |= flagClassCtrl
	}
	flags |= byte(p.Mode) << flagModeShift
	e.Byte(flags)
	e.Uvarint(p.ID)
	e.Node(p.From)
	e.Node(p.To)
	e.Byte(byte(t))
	msgCodecs[t].Encode(e, p.Msg)
	return nil
}

// EncodePacket appends p's versioned binary form (see Encoder.Packet)
// to buf and returns the extended buffer.
func EncodePacket(buf []byte, p *Packet) ([]byte, error) {
	e := Encoder{buf: buf}
	err := e.Packet(p)
	return e.buf, err
}

// PeekFlags classifies an encoded packet from its fixed two-byte
// prefix without decoding it: whether it is payload-class and whether
// it is a session message. ok is false when data is too short or not
// this codec version. Forwarders (the wire drop proxy) use it to pick
// drop-eligible traffic without a full decode.
func PeekFlags(data []byte) (payload, session, ok bool) {
	if len(data) < 2 || data[0] != CodecVersion {
		return false, false, false
	}
	flags := data[1]
	return flags&flagClassCtrl == 0, flags&flagSession != 0, true
}

// PacketDecoder decodes packets into storage it owns: the *Packet that
// Decode returns, its Msg and every slice under it are overwritten by
// the next Decode. That is the wire tier's receive path — each datagram
// is decoded, handed to Host.Deliver, which is synchronous and retains
// none of it, and forgotten — so the steady state allocates nothing.
// The zero value is ready; a PacketDecoder is not safe for concurrent
// use.
type PacketDecoder struct {
	d   Decoder
	pkt Packet
	// slots holds each registered codec's scratch (MsgCodec.Decode), one
	// per registered type, made by the first Decode.
	slots []any
}

// Decode parses one encoded packet. Malformed input yields an error,
// never a panic; trailing garbage after the message payload is rejected
// so the encoding stays canonical. data is only read, and nothing
// returned refers to it.
func (pd *PacketDecoder) Decode(data []byte) (*Packet, error) {
	if pd.slots == nil {
		pd.slots = make([]any, len(msgRegOrder))
	}
	return decodePacket(&pd.d, &pd.pkt, pd.slots, data)
}

// DecodePacket is PacketDecoder.Decode into a packet of its own: what
// it returns is the caller's to keep.
func DecodePacket(data []byte) (*Packet, error) {
	return decodePacket(new(Decoder), new(Packet), nil, data)
}

// decodePacket parses data into *p, reading through *d and handing each
// codec its slot (none when slots is nil).
func decodePacket(d *Decoder, p *Packet, slots []any, data []byte) (*Packet, error) {
	*d = Decoder{buf: data}
	if v := d.Byte(); d.err == nil && v != CodecVersion {
		return nil, fmt.Errorf("netsim: unsupported codec version %d (want %d)", v, CodecVersion)
	}
	flags := d.Byte()
	if d.err == nil && flags&flagUnused != 0 {
		return nil, fmt.Errorf("netsim: reserved flag bits set: %#x", flags)
	}
	mode := Mode(flags & flagModeMask >> flagModeShift)
	if d.err == nil && mode > ModeSubcast {
		return nil, fmt.Errorf("netsim: invalid packet mode %d", mode)
	}
	*p = Packet{
		Session: flags&flagSession != 0,
		Mode:    mode,
	}
	if flags&flagClassCtrl != 0 {
		p.Class = Control
	}
	p.ID = d.Uvarint()
	p.From = d.Node()
	p.To = d.Node()
	t := MsgType(d.Byte())
	if d.err != nil {
		return nil, d.err
	}
	c := msgCodecs[t]
	if c == nil {
		return nil, fmt.Errorf("netsim: unknown wire message type %d", t)
	}
	var slot *any
	if slots != nil {
		slot = &slots[c.slot]
	}
	p.Msg = c.Decode(d, slot)
	if d.err != nil {
		return nil, fmt.Errorf("netsim: decoding %s: %w", c.Name, d.err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("netsim: %d trailing bytes after %s payload", d.Remaining(), c.Name)
	}
	return p, nil
}
