// Package seqwin is the one sliding per-sequence-number store behind
// every loss the protocols track (§3.1–3.2): the agents' reception,
// loss and reply windows, the groups' reply planes and the collector's
// and validator's audit cells.
//
// A Window holds cells for the sequence numbers [Base, Base+Len). The
// prefix below Base has been released — discarded mid-run once the
// experiment layer proved no further event can reference it — which
// bounds per-packet state by the in-flight window instead of the whole
// transmission. A correct run never writes below Base; Ensure's scratch
// cell keeps a buggy late event memory-safe while the validator flags
// it. Prefix and Rows are views over a Window and release by its rule.
// The zero value of Window and Prefix is an empty window based at 0.
package seqwin

// Window is a sliding window of per-sequence-number cells. Release
// zeroes the discarded cells, so what they referenced is reclaimable,
// and skips them behind an offset instead of shifting the survivors;
// the live cells move to the front only when growing would otherwise
// reallocate the backing array. The array — bounded by the peak
// in-flight window — is kept, so a steady release→refill cycle
// allocates nothing.
type Window[T any] struct {
	base int
	// off is the index in cells of the cell for base; every cell below
	// it, like every cell between len and cap, is zero.
	off   int
	cells []T
	// scratch absorbs writes to released coordinates; see Ensure.
	scratch T
}

// Base returns the release watermark: the lowest sequence number the
// window can hold a cell for.
func (w *Window[T]) Base() int { return w.base }

// Len returns the number of cells currently retained.
func (w *Window[T]) Len() int { return len(w.cells) - w.off }

// Cells returns the retained cells; cell i belongs to sequence number
// Base()+i. The slice aliases the window, capped at its last cell so an
// append cannot write past len.
func (w *Window[T]) Cells() []T { return w.cells[w.off:len(w.cells):len(w.cells)] }

// Below returns the retained cells for the sequence numbers below n:
// what ReleaseThrough(n) would discard. The slice aliases the window
// and is capped like Cells.
func (w *Window[T]) Below(n int) []T {
	end := w.off + min(max(n-w.base, 0), w.Len())
	return w.cells[w.off:end:end]
}

// Get returns the cell for seq, or nil when seq was released or lies
// beyond every cell stored so far.
func (w *Window[T]) Get(seq int) *T {
	idx := seq - w.base
	if idx < 0 || idx >= w.Len() {
		return nil
	}
	return &w.cells[w.off+idx]
}

// At returns the value stored for seq, or the zero value where Get is
// nil: the read a window of pointers wants.
func (w *Window[T]) At(seq int) T {
	if c := w.Get(seq); c != nil {
		return *c
	}
	var zero T
	return zero
}

// Ensure returns the cell for seq, growing the window with zero cells
// as needed. A released coordinate yields the scratch cell, re-zeroed
// per call: a straggling write mutates nothing live and never
// resurrects freed state. The pointer is valid until the window next
// changes.
func (w *Window[T]) Ensure(seq int) *T {
	if c := w.reslice(seq); c != nil {
		return c
	}
	return w.grow(seq)
}

// reslice is Ensure's fast path, small enough to inline where it is
// called (scripts/check_inlining.sh holds it there): the cell for seq
// when it lies inside the backing array's capacity, or nil when seq
// needs grow. A cell beyond len is reached by reslicing, which is sound
// because every cell between len and cap is zero. A per-packet caller
// (Prefix.Mark) composes reslice and grow itself, so the common case
// costs it no call.
func (w *Window[T]) reslice(seq int) *T {
	i := seq - w.base + w.off
	if seq < w.base || i >= cap(w.cells) {
		return nil
	}
	if i >= len(w.cells) {
		w.cells = w.cells[:i+1]
	}
	return &w.cells[i]
}

// grow is Ensure's slow path: the scratch cell of a released
// coordinate, the move of the live cells to the front when growing
// would otherwise reallocate, and growth one zero cell at a time past
// cap.
func (w *Window[T]) grow(seq int) *T {
	idx := seq - w.base
	if idx < 0 {
		var zero T
		w.scratch = zero
		return &w.scratch
	}
	if w.off > 0 && w.off+idx >= cap(w.cells) {
		k := copy(w.cells, w.cells[w.off:])
		clear(w.cells[k:])
		w.cells, w.off = w.cells[:k], 0
	}
	for len(w.cells) <= w.off+idx {
		var zero T
		w.cells = append(w.cells, zero)
	}
	return &w.cells[w.off+idx]
}

// ReleaseThrough discards the cells below n and raises Base to n (a
// no-op at or below Base).
func (w *Window[T]) ReleaseThrough(n int) {
	drop := n - w.base
	if drop <= 0 {
		return
	}
	end := min(w.off+drop, len(w.cells))
	clear(w.cells[w.off:end])
	w.off = end
	if w.off == len(w.cells) {
		w.cells, w.off = w.cells[:0], 0
	}
	w.base = n
}

// OpenAt empties the window and rebases it at floor: the reset of a
// restarting host (floor 0) and of a late joiner (floor = its first
// post-join evidence of the stream).
func (w *Window[T]) OpenAt(floor int) {
	clear(w.cells)
	w.cells, w.off = w.cells[:0], 0
	w.base = floor
}

// Prefix is a reception window: one flag per sequence number plus the
// length of the contiguous received prefix. Sequence numbers below Base
// read as received — release is gated on every live host holding them,
// and a late joiner is not owed the history below its floor.
// Base ≤ Held throughout.
type Prefix struct {
	win  Window[bool]
	held int
}

// Base returns the release watermark.
func (p *Prefix) Base() int { return p.win.base }

// Len returns the number of flags currently retained.
func (p *Prefix) Len() int { return p.win.Len() }

// Held returns the length of the contiguous received prefix: every
// sequence number below it is held.
func (p *Prefix) Held() int { return p.held }

// Has reports whether seq is held. It reads the window's fields
// directly: it is the per-delivery probe.
func (p *Prefix) Has(seq int) bool {
	if seq < 0 {
		return false
	}
	i := seq - p.win.base + p.win.off
	return i < p.win.off || (i < len(p.win.cells) && p.win.cells[i])
}

// Mark records receipt of seq and advances the held prefix.
func (p *Prefix) Mark(seq int) {
	c := p.win.reslice(seq)
	if c == nil {
		c = p.win.grow(seq)
	}
	*c = true
	cells := p.win.cells
	for i := p.held - p.win.base + p.win.off; i < len(cells) && cells[i]; i++ {
		p.held++
	}
}

// ReleaseThrough discards the flags below n, clamped to the held
// prefix; Base reports the watermark actually reached.
func (p *Prefix) ReleaseThrough(n int) {
	if n > p.held {
		n = p.held
	}
	p.win.ReleaseThrough(n)
}

// OpenAt empties the window and rebases it; everything below floor
// reads as held.
func (p *Prefix) OpenAt(floor int) {
	p.win.OpenAt(floor)
	p.held = floor
}

// Rows is a sliding window of fixed-width rows, one per sequence number:
// row seq holds width values, one a column, laid out contiguously, so a
// pass over every column of one sequence number reads one run of
// memory. It is a view over a Window: column col of row seq is the
// window's cell seq·width+col, and rows are grown and released whole.
type Rows[T any] struct {
	win   Window[T]
	width int
}

// MakeRows returns an empty window of rows width ≥ 1 values wide, based
// at 0.
func MakeRows[T any](width int) Rows[T] { return Rows[T]{width: width} }

// Base returns the release watermark: the lowest sequence number the
// window can hold a row for.
func (r *Rows[T]) Base() int { return r.win.base / r.width }

// Row returns the row for seq, or nil when seq was released or lies
// beyond every row stored so far. The slice aliases the window and is
// valid until the window next changes.
func (r *Rows[T]) Row(seq int) []T {
	lo := r.win.off + seq*r.width - r.win.base
	if lo < r.win.off || lo >= len(r.win.cells) {
		return nil
	}
	return r.win.cells[lo : lo+r.width : lo+r.width]
}

// At returns the value at column col of row seq, the zero value where
// Row is nil.
func (r *Rows[T]) At(seq, col int) T { return r.win.At(seq*r.width + col) }

// Get returns the cell at column col of row seq, or nil where Row is
// nil. The pointer is valid until the window next changes.
func (r *Rows[T]) Get(seq, col int) *T { return r.win.Get(seq*r.width + col) }

// Ensure returns the cell at column col of row seq, growing the window
// with zero rows as needed. A released row yields the window's scratch
// cell, re-zeroed per call. The pointer is valid until the window next
// changes.
func (r *Rows[T]) Ensure(seq, col int) *T {
	last := seq*r.width + r.width - 1
	if n := last - r.win.base + 1; n > 0 && cap(r.win.cells) == 0 {
		// The first array holds minCells: a narrow plane grown a row at
		// a time would otherwise allocate once per doubling from one
		// cell, and every later array size follows from the first.
		r.win.cells = make([]T, 0, max(n, minCells))
	}
	r.win.Ensure(last)
	return r.win.Ensure(seq*r.width + col)
}

// minCells is the fewest cells the first array of a Rows holds.
const minCells = 2048

// ClearColumn zeroes column col of every retained row.
func (r *Rows[T]) ClearColumn(col int) {
	var zero T
	cells := r.win.Cells()
	for i := col; i < len(cells); i += r.width {
		cells[i] = zero
	}
}

// ReleaseThrough discards the rows below n and raises Base to n (a
// no-op at or below Base).
func (r *Rows[T]) ReleaseThrough(n int) { r.win.ReleaseThrough(n * r.width) }

// OpenAt empties the window and rebases it at floor.
func (r *Rows[T]) OpenAt(floor int) { r.win.OpenAt(floor * r.width) }
