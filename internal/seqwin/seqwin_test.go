package seqwin

import (
	"math/rand"
	"testing"
)

// model is the obviously-right reference the property test compares
// against: a map of stored cells, the set of marked sequence numbers,
// and the release watermark.
type model struct {
	base   int
	top    int // one past the highest cell ever ensured at or above base
	cells  map[int]int
	marked map[int]bool
}

func (m *model) get(seq int) (int, bool) {
	if seq < m.base || seq >= m.top {
		return 0, false
	}
	return m.cells[seq], true
}

func (m *model) has(seq int) bool {
	return seq >= 0 && (seq < m.base || m.marked[seq])
}

func (m *model) held() int {
	h := m.base
	for m.marked[h] {
		h++
	}
	return h
}

func (m *model) release(n int) {
	if n <= m.base {
		return
	}
	for seq := range m.cells {
		if seq < n {
			delete(m.cells, seq)
		}
	}
	for seq := range m.marked {
		if seq < n {
			delete(m.marked, seq)
		}
	}
	m.base = n
	if m.top < n {
		m.top = n
	}
}

func (m *model) openAt(floor int) {
	*m = model{base: floor, top: floor, cells: map[int]int{}, marked: map[int]bool{}}
}

// TestWindowMatchesMapModel drives a Window[int] and a Prefix through
// seeded random Ensure/Get/Mark/ReleaseThrough/OpenAt sequences and
// checks every observable against the map-and-watermark model: writes
// below the base never become visible, the scratch cell is zeroed per
// use, reads outside [Base, Base+Len) are nil, Has below the base is
// true, Held is the contiguous marked prefix, and release clamps to it.
func TestWindowMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w Window[int]
		var p Prefix
		m := &model{}
		m.openAt(0)
		// Both structures share the model's watermark: the agents release
		// their reception prefix and cell windows together.
		check := func(op string) {
			t.Helper()
			if w.Base() != m.base || p.Base() != m.base {
				t.Fatalf("seed %d after %s: Base = %d/%d, want %d", seed, op, w.Base(), p.Base(), m.base)
			}
			if w.Len() != m.top-m.base {
				t.Fatalf("seed %d after %s: Len = %d, want %d", seed, op, w.Len(), m.top-m.base)
			}
			if p.Held() != m.held() {
				t.Fatalf("seed %d after %s: Held = %d, want %d", seed, op, p.Held(), m.held())
			}
			for seq := -2; seq < m.top+3; seq++ {
				want, ok := m.get(seq)
				got := w.Get(seq)
				if (got != nil) != ok || (ok && *got != want) {
					t.Fatalf("seed %d after %s: Get(%d) = %v, want %d present=%v", seed, op, seq, got, want, ok)
				}
				if w.At(seq) != want {
					t.Fatalf("seed %d after %s: At(%d) = %d, want %d", seed, op, seq, w.At(seq), want)
				}
				if p.Has(seq) != m.has(seq) {
					t.Fatalf("seed %d after %s: Has(%d) = %v, want %v", seed, op, seq, p.Has(seq), m.has(seq))
				}
			}
			for i, c := range w.Cells() {
				if want, _ := m.get(w.Base() + i); c != want {
					t.Fatalf("seed %d after %s: Cells()[%d] = %d, want %d", seed, op, i, c, want)
				}
			}
		}
		for step := 0; step < 400; step++ {
			seq := m.base - 3 + rng.Intn(12)
			switch r := rng.Intn(10); {
			case r < 4:
				c := w.Ensure(seq)
				if *c != m.cells[seq] && seq >= m.base {
					t.Fatalf("seed %d: Ensure(%d) = %d, want %d", seed, seq, *c, m.cells[seq])
				}
				if seq < m.base && *c != 0 {
					t.Fatalf("seed %d: scratch cell for released seq %d not zeroed: %d", seed, seq, *c)
				}
				*c = step + 1
				if seq >= m.base {
					m.cells[seq] = step + 1
					if seq+1 > m.top {
						m.top = seq + 1
					}
				}
				check("Ensure")
			case r < 7:
				if seq < 0 {
					continue
				}
				p.Mark(seq)
				if seq >= m.base {
					m.marked[seq] = true
				}
				check("Mark")
			case r < 9:
				// The agents clamp every release to the held prefix and
				// apply the reached watermark to the sibling windows.
				p.ReleaseThrough(seq + 2)
				w.ReleaseThrough(p.Base())
				if n := seq + 2; n > m.held() {
					m.release(m.held())
				} else {
					m.release(n)
				}
				check("ReleaseThrough")
			default:
				floor := rng.Intn(30)
				w.OpenAt(floor)
				p.OpenAt(floor)
				m.openAt(floor)
				check("OpenAt")
			}
		}
	}
}

// TestReleaseZeroesVacatedCells pins the reclaimability half of the
// contract: after a release or reset nothing in the retained backing
// array — the skipped prefix included — still references the dropped
// cells' contents.
func TestReleaseZeroesVacatedCells(t *testing.T) {
	var w Window[*int]
	for seq := 0; seq < 8; seq++ {
		*w.Ensure(seq) = new(int)
	}
	w.ReleaseThrough(5)
	for i, c := range w.cells[:w.off] {
		if c != nil {
			t.Fatalf("skipped cell %d still holds a pointer after release", i)
		}
	}
	w.OpenAt(2)
	for i, c := range w.cells[:cap(w.cells)] {
		if c != nil {
			t.Fatalf("backing cell %d still holds a pointer after release and reset", i)
		}
	}
}

// TestReleaseRefillAllocationFree pins the capacity-retention half: once
// the window has reached its peak in-flight size, the steady
// release→refill cycle performs no heap allocations.
func TestReleaseRefillAllocationFree(t *testing.T) {
	var w Window[int]
	var p Prefix
	next := 0
	cycle := func() {
		for i := 0; i < 32; i++ {
			*w.Ensure(next) = next
			p.Mark(next)
			next++
		}
		p.ReleaseThrough(next - 4)
		w.ReleaseThrough(p.Base())
	}
	cycle()
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("release→refill cycle allocates %.1f objects, want 0", avg)
	}
}

// TestRowsMatchMapModel drives a three-column Rows through seeded random
// Ensure/ClearColumn/ReleaseThrough/OpenAt sequences and checks every
// observable against a map keyed by (seq, col) plus the watermark:
// writes below the base never become visible, the scratch cell is
// zeroed per use, Row is nil outside the retained rows and aliases At
// inside them, and a cleared column reads zero in every retained row.
func TestRowsMatchMapModel(t *testing.T) {
	const width = 3
	type key struct{ seq, col int }
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := MakeRows[int](width)
		base, top := 0, 0
		cells := map[key]int{}
		check := func(op string) {
			t.Helper()
			if r.Base() != base {
				t.Fatalf("seed %d after %s: Base %d, want %d", seed, op, r.Base(), base)
			}
			for seq := base - 2; seq < top+3; seq++ {
				row := r.Row(seq)
				if (row != nil) != (seq >= base && seq < top) {
					t.Fatalf("seed %d after %s: Row(%d) = %v with rows [%d, %d)", seed, op, seq, row, base, top)
				}
				for col := 0; col < width; col++ {
					want := 0
					if seq >= base {
						want = cells[key{seq, col}]
					}
					if got := r.At(seq, col); got != want {
						t.Fatalf("seed %d after %s: At(%d, %d) = %d, want %d", seed, op, seq, col, got, want)
					}
					if row != nil && row[col] != want {
						t.Fatalf("seed %d after %s: Row(%d)[%d] = %d, want %d", seed, op, seq, col, row[col], want)
					}
				}
			}
		}
		for step := 0; step < 400; step++ {
			seq, col := base-3+rng.Intn(12), rng.Intn(width)
			switch x := rng.Intn(10); {
			case x < 5:
				c := r.Ensure(seq, col)
				if seq < base && *c != 0 {
					t.Fatalf("seed %d: scratch cell for released seq %d not zeroed: %d", seed, seq, *c)
				}
				*c = step + 1
				if seq >= base {
					cells[key{seq, col}] = step + 1
					top = max(top, seq+1)
				}
				check("Ensure")
			case x < 6:
				r.ClearColumn(col)
				for k := range cells {
					if k.col == col {
						delete(cells, k)
					}
				}
				check("ClearColumn")
			case x < 9:
				n := seq + 2
				r.ReleaseThrough(n)
				if n > base {
					for k := range cells {
						if k.seq < n {
							delete(cells, k)
						}
					}
					base, top = n, max(top, n)
				}
				check("ReleaseThrough")
			default:
				floor := rng.Intn(30)
				r.OpenAt(floor)
				base, top, cells = floor, floor, map[key]int{}
				check("OpenAt")
			}
		}
	}
}

// TestRowsReleaseRefillAllocationFree: once the window has reached its
// peak in-flight size, sliding it allocates nothing.
func TestRowsReleaseRefillAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on this path; the plain test run enforces this pin")
	}
	r := MakeRows[uint64](64)
	next := 0
	cycle := func() {
		for i := 0; i < 32; i++ {
			for col := 0; col < 64; col++ {
				*r.Ensure(next, col) = uint64(next)
			}
			next++
		}
		r.ReleaseThrough(next - 4)
	}
	cycle()
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("release→refill cycle allocates %.1f objects, want 0", avg)
	}
}

// TestWidthOneReleaseRefillAllocationFree: a width-one Rows, the plane of
// an agent in no group, slides beside its stream's Window without
// allocating once both have reached their peak in-flight size, now that
// neither starts from a preallocated floor.
func TestWidthOneReleaseRefillAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on this path; the plain test run enforces this pin")
	}
	var w Window[uint64]
	r := MakeRows[uint64](1)
	next := 0
	cycle := func() {
		for i := 0; i < 32; i++ {
			*w.Ensure(next) = uint64(next)
			*r.Ensure(next, 0) = uint64(next)
			next++
		}
		w.ReleaseThrough(next - 4)
		r.ReleaseThrough(next - 4)
	}
	cycle()
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("release→refill cycle allocates %.1f objects, want 0", avg)
	}
}

// TestRowsFirstArrayHoldsMinCells pins the first array of a narrow
// plane: rows up to minCells cells fill it without reallocating, so a
// one-column plane built afresh per replayed node allocates once
// instead of once per doubling.
func TestRowsFirstArrayHoldsMinCells(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on this path; the plain test run enforces this pin")
	}
	fill := func() {
		r := MakeRows[uint64](1)
		for seq := range minCells {
			*r.Ensure(seq, 0) = uint64(seq)
		}
	}
	if avg := testing.AllocsPerRun(20, fill); avg != 1 {
		t.Fatalf("filling %d one-column rows allocates %.1f objects, want 1", minCells, avg)
	}
}

// BenchmarkPrefixMark is an agent's per-delivery reception step: probe
// with Has, then Mark and advance the held prefix. Packets arrive
// reversed in blocks of four (3, 2, 1, 0, 7, 6, ...), so three marks in
// four leave a gap and the fourth advances the prefix past the block;
// every 256 packets the window releases all but the last 64 held
// flags, as the experiment layer's watermark does, so the backing
// array cycles through compaction without allocating.
func BenchmarkPrefixMark(b *testing.B) {
	var p Prefix
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if seq := i ^ 3; !p.Has(seq) {
			p.Mark(seq)
		}
		if i%256 == 255 {
			p.ReleaseThrough(p.Held() - 64)
		}
	}
}
