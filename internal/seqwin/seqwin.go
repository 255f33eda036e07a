// Package seqwin is the one sliding per-sequence-number store behind
// every loss the protocols track (§3.1–3.2): the agents' reception,
// loss and reply windows and the collector's and validator's audit
// cells.
//
// A Window holds cells for the sequence numbers [Base, Base+Len). The
// prefix below Base has been released — discarded mid-run once the
// experiment layer proved no further event can reference it — which
// bounds per-packet state by the in-flight window instead of the whole
// transmission. A correct run never writes below Base; Ensure's scratch
// cell keeps a buggy late event memory-safe while the validator flags
// it. The zero value of both types is an empty window based at 0.
package seqwin

// Window is a sliding window of per-sequence-number cells.
type Window[T any] struct {
	base  int
	cells []T
	// scratch absorbs writes to released coordinates; see Ensure.
	scratch T
}

// Base returns the release watermark: the lowest sequence number the
// window can hold a cell for.
func (w *Window[T]) Base() int { return w.base }

// Len returns the number of cells currently retained.
func (w *Window[T]) Len() int { return len(w.cells) }

// Cells returns the retained cells; cell i belongs to sequence number
// Base()+i. The slice aliases the window.
func (w *Window[T]) Cells() []T { return w.cells }

// Below returns the retained cells for the sequence numbers below n:
// what ReleaseThrough(n) would discard. The slice aliases the window.
func (w *Window[T]) Below(n int) []T {
	return w.cells[:min(max(n-w.base, 0), len(w.cells))]
}

// Get returns the cell for seq, or nil when seq was released or lies
// beyond every cell stored so far.
func (w *Window[T]) Get(seq int) *T {
	idx := seq - w.base
	if idx < 0 || idx >= len(w.cells) {
		return nil
	}
	return &w.cells[idx]
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
	idx := seq - w.base
	if idx < 0 {
		var zero T
		w.scratch = zero
		return &w.scratch
	}
	for len(w.cells) <= idx {
		var zero T
		w.cells = append(w.cells, zero)
	}
	return &w.cells[idx]
}

// ReleaseThrough discards the cells below n and raises Base to n (a
// no-op at or below Base). The survivors shift to the front in place,
// the vacated cells are zeroed so what they referenced is reclaimable,
// and the backing array — bounded by the peak in-flight window — is
// kept, so a steady release→refill cycle allocates nothing.
func (w *Window[T]) ReleaseThrough(n int) {
	drop := n - w.base
	if drop <= 0 {
		return
	}
	k := copy(w.cells, w.cells[min(drop, len(w.cells)):])
	clear(w.cells[k:])
	w.cells = w.cells[:k]
	w.base = n
}

// OpenAt empties the window and rebases it at floor: the reset of a
// restarting host (floor 0) and of a late joiner (floor = its first
// post-join evidence of the stream).
func (w *Window[T]) OpenAt(floor int) {
	clear(w.cells)
	w.cells = w.cells[:0]
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
func (p *Prefix) Len() int { return len(p.win.cells) }

// Held returns the length of the contiguous received prefix: every
// sequence number below it is held.
func (p *Prefix) Held() int { return p.held }

// Has reports whether seq is held.
func (p *Prefix) Has(seq int) bool {
	if seq < 0 {
		return false
	}
	idx := seq - p.win.base
	return idx < 0 || (idx < len(p.win.cells) && p.win.cells[idx])
}

// Mark records receipt of seq and advances the held prefix.
func (p *Prefix) Mark(seq int) {
	*p.win.Ensure(seq) = true
	cells := p.win.cells
	for i := p.held - p.win.base; i < len(cells) && cells[i]; i++ {
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
// memory. Like Window it holds rows from Base up to the highest one
// ensured and keeps its backing array, so a steady release→refill cycle
// allocates nothing.
// Unlike Window it does not shift its survivors on every release: a
// wide row makes that copy the cost of the release, so released rows
// are zeroed and skipped, and the live rows move to the front only when
// the backing array would otherwise grow.
type Rows[T any] struct {
	base, width int
	// off is the index in cells where row base starts; every cell below
	// it, like every cell between len and cap, is zero.
	off   int
	cells []T
	// scratch absorbs writes to released coordinates, as in Window.
	scratch T
}

// MakeRows returns an empty window of rows width values wide, based at 0.
func MakeRows[T any](width int) Rows[T] { return Rows[T]{width: width} }

// Base returns the release watermark: the lowest sequence number the
// window can hold a row for.
func (r *Rows[T]) Base() int { return r.base }

// Row returns the row for seq, or nil when seq was released or lies
// beyond every row stored so far. The slice aliases the window and is
// valid until the window next changes.
func (r *Rows[T]) Row(seq int) []T {
	lo := r.off + (seq-r.base)*r.width
	if seq < r.base || lo >= len(r.cells) {
		return nil
	}
	return r.cells[lo : lo+r.width : lo+r.width]
}

// At returns the value at column col of row seq, the zero value where
// Row is nil.
func (r *Rows[T]) At(seq, col int) T {
	if i := r.off + (seq-r.base)*r.width + col; seq >= r.base && i < len(r.cells) {
		return r.cells[i]
	}
	var zero T
	return zero
}

// Get returns the cell at column col of row seq, or nil where Row is
// nil. The pointer is valid until the window next changes.
func (r *Rows[T]) Get(seq, col int) *T {
	if i := r.off + (seq-r.base)*r.width + col; seq >= r.base && i < len(r.cells) {
		return &r.cells[i]
	}
	return nil
}

// Ensure returns the cell at column col of row seq, growing the window
// with zero rows as needed, after moving the live rows to the front if
// that saves growing the backing array. A released row yields the
// scratch cell, re-zeroed per call. The pointer is valid until the
// window next changes.
func (r *Rows[T]) Ensure(seq, col int) *T {
	if c := r.Get(seq, col); c != nil {
		return c
	}
	idx := seq - r.base
	if idx < 0 {
		var zero T
		r.scratch = zero
		return &r.scratch
	}
	n := (idx + 1) * r.width
	if r.off > 0 && r.off+n > cap(r.cells) {
		k := copy(r.cells, r.cells[r.off:])
		clear(r.cells[k:])
		r.cells, r.off = r.cells[:k], 0
	}
	if cap(r.cells) == 0 {
		// The first array holds minCells: a narrow window grown a row at
		// a time would otherwise allocate once per doubling from one row.
		r.cells = make([]T, 0, max(n, minCells))
	}
	r.cells = append(r.cells, make([]T, r.off+n-len(r.cells))...)
	return &r.cells[r.off+idx*r.width+col]
}

// minCells is the fewest cells a Rows allocates room for.
const minCells = 2048

// ClearColumn zeroes column col of every retained row.
func (r *Rows[T]) ClearColumn(col int) {
	var zero T
	for i := r.off + col; i < len(r.cells); i += r.width {
		r.cells[i] = zero
	}
}

// ReleaseThrough discards the rows below n and raises Base to n (a
// no-op at or below Base). The discarded rows are zeroed, so what they
// referenced is reclaimable.
func (r *Rows[T]) ReleaseThrough(n int) {
	drop := n - r.base
	if drop <= 0 {
		return
	}
	end := min(r.off+drop*r.width, len(r.cells))
	clear(r.cells[r.off:end])
	r.off = end
	if r.off == len(r.cells) {
		r.cells, r.off = r.cells[:0], 0
	}
	r.base = n
}

// OpenAt empties the window and rebases it at floor.
func (r *Rows[T]) OpenAt(floor int) {
	clear(r.cells)
	r.cells, r.off = r.cells[:0], 0
	r.base = floor
}
