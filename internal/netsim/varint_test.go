package netsim

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// refDecoder is the reference FuzzVarintMatchesBinary holds the
// Decoder's reads to: encoding/binary's varint decoding plus the
// minimality rule (a multi-byte encoding must not end in a zero
// continuation group), the first error kept, every read after it zero.
type refDecoder struct {
	buf []byte
	off int
	err string
}

func (r *refDecoder) fail(format string, args ...any) {
	if r.err == "" {
		r.err = fmt.Sprintf(format, args...)
	}
}

func (r *refDecoder) minimal(n int) bool { return n > 0 && (n == 1 || r.buf[r.off+n-1] != 0) }

func (r *refDecoder) uvarint() uint64 {
	if r.err != "" {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if !r.minimal(n) {
		r.fail("netsim: truncated or non-minimal uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *refDecoder) varint() int64 {
	if r.err != "" {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if !r.minimal(n) {
		r.fail("netsim: truncated or non-minimal varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *refDecoder) byte() byte {
	if r.err != "" {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("netsim: truncated input at offset %d", r.off)
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

// FuzzVarintMatchesBinary reads arbitrary bytes with an input-chosen
// sequence of Byte, Uvarint and Varint calls, through the Decoder and
// through refDecoder, and requires the same value, the same Remaining
// and the same error text after every read: the same inputs accepted
// with the same values, the same failure offsets, and zero from every
// read after the first failure.
func FuzzVarintMatchesBinary(f *testing.F) {
	ten := func(last byte) []byte {
		return append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, last)
	}
	// 0 is Byte, 1 Uvarint, 2 Varint.
	f.Add([]byte{1, 2, 0}, []byte{0x05, 0x7f, 0x2a})
	f.Add([]byte{1, 1}, ten(0x01))                   // the largest uvarint, then truncation
	f.Add([]byte{1, 0, 1}, ten(0x02))                // 10-byte overflow, then reads after it
	f.Add([]byte{2, 2}, append(ten(0x01), 0x03))     // the smallest varint, then 3
	f.Add([]byte{1}, append(ten(0xff), 0x00))        // eleven bytes, no terminator in ten
	f.Add([]byte{1, 1, 0}, []byte{0x80, 0x00, 0x07}) // non-minimal zero, then reads after it
	f.Add([]byte{2, 0, 2}, []byte{0xac, 0x02, 0x09, 0x80})
	f.Add([]byte{0, 0, 0, 1}, []byte{0x01, 0x02})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		d := Decoder{buf: data}
		r := refDecoder{buf: data}
		for step, op := range ops[:min(len(ops), 64)] {
			var got, want any
			switch op % 3 {
			case 0:
				got, want = d.Byte(), r.byte()
			case 1:
				got, want = d.Uvarint(), r.uvarint()
			case 2:
				got, want = d.Varint(), r.varint()
			}
			if got != want {
				t.Fatalf("step %d (op %d): read %v, want %v", step, op%3, got, want)
			}
			if d.Remaining() != len(r.buf)-r.off {
				t.Fatalf("step %d (op %d): Remaining %d, want %d", step, op%3, d.Remaining(), len(r.buf)-r.off)
			}
			gotErr := ""
			if d.Err() != nil {
				gotErr = d.Err().Error()
			}
			if gotErr != r.err {
				t.Fatalf("step %d (op %d): error %q, want %q", step, op%3, gotErr, r.err)
			}
		}
	})
}
