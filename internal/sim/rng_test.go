package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// rngPair is one stream drawn from both the RNG and the math/rand
// generator it must equal.
type rngPair struct {
	got  *RNG
	want *rand.Rand
}

// opReader hands out the fuzzed operation bytes, reading zeros once
// they run out.
type opReader []byte

func (r *opReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *opReader) uint64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = r.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// FuzzRNGMatchesMathRand drives the RNG and rand.New(rand.NewSource(seed))
// with the same operations and requires every value to be equal. Each
// operation byte picks a stream (Split adds one, up to eight) and a
// method; parameters come from the bytes after it.
func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 40, 3, 1, 2, 3, 4, 4, 1, 2, 3, 4, 5, 6, 7, 8, 5, 9, 9, 9, 6, 3, 7, 30, 8, 0x10, 0x11, 0x06, 0xff})
	f.Add(int64(0), []byte{9, 255, 9, 255, 9, 255})
	f.Add(int64(-42), []byte{8, 8, 0x16, 0x26, 0x17, 0x29, 0xff, 0x16, 0x1a, 0xf0})
	f.Add(int64(math.MaxInt64), []byte{6, 0x80, 6, 0x7f, 6, 0, 4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(int64(math.MinInt64), []byte{7, 63, 3, 0xff, 0xff, 0xff, 0x7f, 2, 62})
	f.Add(int64(1<<31-1), []byte{9, 200, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		streams := []rngPair{{NewRNG(seed), rand.New(rand.NewSource(seed))}}
		r := opReader(ops)
		for step := 0; len(r) > 0; step++ {
			op := r.byte()
			s := streams[int(op>>4)%len(streams)]
			fail := func(what string, got, want any) {
				t.Helper()
				t.Fatalf("step %d (op %#x, stream %d): %s = %v, math/rand %v", step, op, int(op>>4)%len(streams), what, got, want)
			}
			switch op & 15 {
			case 0:
				if got, want := s.got.Float64(), s.want.Float64(); got != want {
					fail("Float64", got, want)
				}
			case 1:
				if got, want := s.got.Int63(), s.want.Int63(); got != want {
					fail("Int63", got, want)
				}
			case 2: // a power of two
				n := 1 << (r.byte() % 63)
				if got, want := s.got.Intn(n), s.want.Intn(n); got != want {
					fail("Intn", got, want)
				}
			case 3: // n <= 2^31 − 1
				n := 1 + int(r.uint64()%math.MaxInt32)
				if got, want := s.got.Intn(n), s.want.Intn(n); got != want {
					fail("Intn", got, want)
				}
			case 4: // n > 2^31
				n := int(r.uint64()>>1 | 1<<31)
				if got, want := s.got.Intn(n), s.want.Intn(n); got != want {
					fail("Intn", got, want)
				}
			case 5: // hi <= lo draws nothing
				lo := time.Duration(r.uint64())
				hi := lo - time.Duration(r.byte())
				if hi > lo {
					hi = lo
				}
				if got := s.got.UniformDuration(lo, hi); got != lo {
					fail("UniformDuration", got, lo)
				}
			case 6: // n within 128 of 2^62: about half the draws are rejected
				lo := time.Duration(int8(r.byte()))
				n := int64(1<<62 + int64(int8(r.byte())))
				got := s.got.UniformDuration(lo, lo+time.Duration(n))
				if want := lo + time.Duration(s.want.Int63n(n)); got != want {
					fail("UniformDuration", got, want)
				}
			case 7:
				lo := time.Duration(r.uint64() >> 2)
				n := int64(r.uint64()>>2) + 1
				got := s.got.UniformDuration(lo, lo+time.Duration(n))
				if want := lo + time.Duration(s.want.Int63n(n)); got != want {
					fail("UniformDuration", got, want)
				}
			case 8:
				n := int(r.byte() % 70)
				if got, want := s.got.Perm(n), s.want.Perm(n); !slices.Equal(got, want) {
					fail("Perm", got, want)
				}
			case 9: // a run of draws, enough to wrap the register
				for i := range 8 * int(r.byte()) {
					if got, want := s.got.Int63(), s.want.Int63(); got != want {
						fail(fmt.Sprintf("Int63 (draw %d of a run)", i), got, want)
					}
				}
			case 10:
				if len(streams) == 8 {
					continue
				}
				streams = append(streams, rngPair{s.got.Split(), rand.New(rand.NewSource(s.want.Int63()))})
			}
		}
		for i, s := range streams {
			for range rngLen + 1 {
				if got, want := s.got.Int63(), s.want.Int63(); got != want {
					t.Fatalf("stream %d after the operations: Int63 = %d, math/rand %d", i, got, want)
				}
			}
		}
	})
}

// plannedSource is a math/rand Source that returns a fixed list.
type plannedSource []int64

func (p *plannedSource) Int63() int64 {
	v := (*p)[0]
	*p = (*p)[1:]
	return v
}

func (p *plannedSource) Seed(int64) {}

// plant makes the RNG's next Int63 draws return vs.
func (g *RNG) plant(vs ...int64) {
	c := *g // draws beside g, holding the register as g will see it
	for _, v := range vs {
		c.Int63()
		g.vec[c.feed] = uint64(v) - c.vec[c.tap]
		c.vec[c.feed] = uint64(v)
	}
}

// TestFloat64DrawsAgainOnOne: a draw of 2^63 − 512 or more rounds to
// 1.0, and math/rand's Float64 then draws again; a draw of 2^63 − 513
// does not round up and is returned. The last planted draw is the one
// after those Float64 uses.
func TestFloat64DrawsAgainOnOne(t *testing.T) {
	for _, draws := range [][]int64{
		{1<<63 - 512, 12345, 99},
		{math.MaxInt64, 1<<63 - 100, 7, 99},
		{1<<63 - 513, 99},
	} {
		src := plannedSource(slices.Clone(draws))
		want := rand.New(&src).Float64()
		g := NewRNG(3)
		g.plant(draws...)
		if got := g.Float64(); got != want || got >= 1 {
			t.Fatalf("draws %v: Float64 = %v, math/rand %v", draws, got, want)
		}
		if got := g.Int63(); got != 99 {
			t.Fatalf("draws %v: the draw after Float64 is %d, want the last planted one", draws, got)
		}
	}
}

// TestNewRNGAllocatesOnlyTheRNG pins construction at one object: the
// math/rand source it bootstraps from is pooled.
func TestNewRNGAllocatesOnlyTheRNG(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled objects; the plain test run enforces this pin")
	}
	seed := int64(0)
	if got := testing.AllocsPerRun(100, func() { seed++; rngSink = NewRNG(seed) }); got != 1 {
		t.Fatalf("NewRNG allocates %v objects, want 1", got)
	}
}

var (
	rngSink      *RNG
	rngSinkInt   int64
	rngSinkFloat float64
)

func BenchmarkRNG(b *testing.B) {
	b.Run("NewRNG", func(b *testing.B) {
		b.ReportAllocs()
		for i := range b.N {
			rngSink = NewRNG(int64(i))
		}
	})
	b.Run("Split", func(b *testing.B) {
		g := NewRNG(1)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			rngSink = g.Split()
		}
	})
	b.Run("Float64", func(b *testing.B) {
		g := NewRNG(1)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			rngSinkFloat += g.Float64()
		}
	})
	b.Run("Int63", func(b *testing.B) {
		g := NewRNG(1)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			rngSinkInt += g.Int63()
		}
	})
	b.Run("Intn", func(b *testing.B) {
		g := NewRNG(1)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			rngSinkInt += int64(g.Intn(1000))
		}
	})
	b.Run("UniformDuration", func(b *testing.B) {
		g := NewRNG(1)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			rngSinkInt += int64(g.UniformDuration(time.Millisecond, 3*time.Millisecond))
		}
	})
}
