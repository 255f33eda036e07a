package sim

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// The generator is math/rand's: an additive lagged-Fibonacci register of
// rngLen words, x_n = x_{n−607} + x_{n−273} (mod 2^64).
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = math.MaxInt64
)

// RNG is a seeded pseudo-random stream with the distribution helpers the
// protocol layers need. All randomness in a simulation must flow
// through an explicitly seeded RNG so that runs are reproducible; this
// package never touches global rand state.
//
// Every stream is bit-identical to rand.New(rand.NewSource(seed)) and
// every method returns what the math/rand method of the same name
// returns, but the register is stepped here, inline, rather than
// through rand.Rand and its Source interface. Changing the recurrence,
// the bootstrap in NewRNG or any method's draw rule moves every
// recorded fingerprint and trace digest.
type RNG struct {
	// tap and feed walk the register downwards as in math/rand's
	// rngSource; int32 keeps the struct at 4,864 bytes, a size class.
	tap, feed int32
	vec       [rngLen]uint64
}

// sources recycles the math/rand generators NewRNG reads its register
// from, so a construction allocates only the RNG itself.
var sources = sync.Pool{New: func() any { return rand.NewSource(0).(rand.Source64) }}

// NewRNG returns a deterministic RNG seeded with seed. It seeds a
// math/rand source with the same seed and takes its first rngLen
// outputs, which are the register after rngLen steps; undoing those
// steps recovers the register as the source's Seed left it.
func NewRNG(seed int64) *RNG {
	src := sources.Get().(rand.Source64)
	src.Seed(seed)
	g := &RNG{feed: rngLen - rngTap}
	// Step k writes its output to word (rngLen−rngTap−k) mod rngLen.
	for f := rngLen - rngTap - 1; f >= 0; f-- {
		g.vec[f] = src.Uint64()
	}
	for f := rngLen - 1; f >= rngLen-rngTap; f-- {
		g.vec[f] = src.Uint64()
	}
	sources.Put(src)
	// Undo steps rngLen down to 1: step k added word rngLen−k to its
	// output word.
	for t := 0; t < rngTap; t++ {
		g.vec[t+rngLen-rngTap] -= g.vec[t]
	}
	for t := rngTap; t < rngLen; t++ {
		g.vec[t-rngTap] -= g.vec[t]
	}
	return g
}

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 {
	tap, feed := g.tap-1, g.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	g.tap, g.feed = tap, feed
	x := g.vec[feed] + g.vec[tap]
	g.vec[feed] = x
	return int64(x & rngMask)
}

// Float64 returns a uniform value in [0, 1). A draw of 2^63 − 512 or
// more rounds to 1.0 and is drawn again, as rand.Float64 does.
func (g *RNG) Float64() float64 {
	for {
		if f := float64(g.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= math.MaxInt32 {
		return int(g.int31n(int32(n)))
	}
	return int(g.int63n(int64(n)))
}

// int31n is rand.Int31n for n > 0.
func (g *RNG) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(g.Int63()>>32) & (n - 1)
	}
	max := int32(math.MaxInt32 - (1<<31)%uint32(n))
	v := int32(g.Int63() >> 32)
	for v > max {
		v = int32(g.Int63() >> 32)
	}
	return v % n
}

// int63n is rand.Int63n. A draw below 2^63 − n is never above
// rand.Int63n's rejection bound, 2^63 − 1 − (2^63 mod n), so the
// division that computes the bound runs only for draws within n of 2^63.
func (g *RNG) int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return g.Int63() & (n - 1)
	}
	v := g.Int63()
	if v > math.MaxInt64-n {
		max := int64(math.MaxInt64 - (1<<63)%uint64(n))
		for v > max {
			v = g.Int63()
		}
	}
	return v % n
}

// UniformDuration returns a duration drawn uniformly from [lo, hi).
// If hi <= lo it returns lo, which makes degenerate intervals (for
// example a zero-width SRM request window when C2 = 0) well defined.
func (g *RNG) UniformDuration(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(g.int63n(int64(hi-lo)))
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int {
	m := make([]int, n)
	for i := range n {
		j := g.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// Split derives an independent RNG from this one. The derived stream is
// a pure function of the parent's state, preserving reproducibility
// while letting subsystems consume randomness without perturbing each
// other's sequences.
func (g *RNG) Split() *RNG {
	return NewRNG(g.Int63())
}

// Scale returns d scaled by the dimensionless factor f, rounding to the
// nearest nanosecond. The SRM timers are all expressed as parameter
// multiples of estimated distances, so this helper lives beside the RNG
// used to draw them.
func Scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d)*f + 0.5)
}
