package seqwin

import "testing"

// rowsModel is the map-based reference for a Rows: the cells stored per
// (seq, col), the release watermark, and one past the highest row ever
// ensured at or above it.
type rowsModel struct {
	base, top int
	cells     map[[2]int]int
}

// FuzzWindowMatchesMap drives a Window[int], a Prefix and a Rows[int] of
// the input's width with an input-chosen sequence of operations and
// compares every observable against map-based models after each one.
// Besides the reads, it asserts that Len is the number of retained
// cells (for Rows, that the window under the view holds whole rows),
// that a write below Base never changes a live cell, and that Held is
// the length of the contiguous marked prefix. The three structures
// slide independently, so the backing arrays compact at different
// moments.
func FuzzWindowMatchesMap(f *testing.F) {
	f.Add(uint8(0), []byte{0, 5, 0, 30, 3, 10, 0, 39, 0, 2, 9, 12})
	f.Add(uint8(2), []byte{10, 7, 10, 3, 11, 9, 12, 20, 14, 1, 10, 39, 13, 0, 15, 4})
	f.Add(uint8(63), []byte{5, 0, 5, 1, 5, 2, 7, 9, 6, 3, 5, 39, 8, 30, 5, 4})
	f.Fuzz(func(t *testing.T, w8 uint8, ops []byte) {
		width := 1 + int(w8%16)
		// 256 operations slide each window through several compactions;
		// longer inputs only slow the fuzzer and its minimiser down.
		ops = ops[:min(len(ops), 512)]
		var w Window[int]
		var p Prefix
		r := MakeRows[int](width)
		mw, mp := &model{}, &model{}
		mw.openAt(0)
		mp.openAt(0)
		mr := &rowsModel{cells: map[[2]int]int{}}

		check := func(step int, op, arg byte) {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("step %d (op %d): "+format, append([]any{step, op % 16}, args...)...)
			}
			// Window.
			if w.Base() != mw.base || w.Len() != mw.top-mw.base {
				fail("Window Base/Len = %d/%d, want %d/%d", w.Base(), w.Len(), mw.base, mw.top-mw.base)
			}
			if len(w.Cells()) != w.Len() {
				fail("len(Cells) = %d, Len = %d", len(w.Cells()), w.Len())
			}
			for seq := mw.base - 3; seq < mw.top+3; seq++ {
				want, ok := mw.get(seq)
				if c := w.Get(seq); (c != nil) != ok || ok && *c != want {
					fail("Window Get(%d) = %v, want %d present=%v", seq, c, want, ok)
				}
				if got := w.At(seq); got != want {
					fail("Window At(%d) = %d, want %d", seq, got, want)
				}
			}
			for i, c := range w.Cells() {
				if want, _ := mw.get(mw.base + i); c != want {
					fail("Cells()[%d] = %d, want %d", i, c, want)
				}
			}
			if n := mw.base - 2 + int(arg)%30; len(w.Below(n)) != min(max(n-mw.base, 0), mw.top-mw.base) {
				fail("len(Below(%d)) = %d with cells [%d, %d)", n, len(w.Below(n)), mw.base, mw.top)
			}
			// Prefix.
			if p.Base() != mp.base || p.Len() != mp.top-mp.base {
				fail("Prefix Base/Len = %d/%d, want %d/%d", p.Base(), p.Len(), mp.base, mp.top-mp.base)
			}
			if p.Held() != mp.held() {
				fail("Held = %d, want the marked prefix %d", p.Held(), mp.held())
			}
			for seq := mp.base - 3; seq < mp.top+3; seq++ {
				if p.Has(seq) != mp.has(seq) {
					fail("Has(%d) = %v, want %v", seq, p.Has(seq), mp.has(seq))
				}
			}
			// Rows.
			if r.Base() != mr.base || r.win.Len() != (mr.top-mr.base)*width {
				fail("Rows Base/cells = %d/%d, want %d/%d", r.Base(), r.win.Len(), mr.base, (mr.top-mr.base)*width)
			}
			for seq := mr.base - 3; seq < mr.top+3; seq++ {
				live := seq >= mr.base && seq < mr.top
				row := r.Row(seq)
				if (row != nil) != live || live && len(row) != width {
					fail("Row(%d) = %v with rows [%d, %d)", seq, row, mr.base, mr.top)
				}
				for col := 0; col < width; col++ {
					want := 0
					if live {
						want = mr.cells[[2]int{seq, col}]
					}
					if got := r.At(seq, col); got != want {
						fail("Rows At(%d, %d) = %d, want %d", seq, col, got, want)
					}
					if c := r.Get(seq, col); (c != nil) != live || live && *c != want {
						fail("Rows Get(%d, %d) = %v, want %d present=%v", seq, col, c, want, live)
					}
					if live && row[col] != want {
						fail("Row(%d)[%d] = %d, want %d", seq, col, row[col], want)
					}
				}
			}
		}

		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step], int(ops[step+1])
			val := step + 1
			switch op % 16 {
			case 0, 1: // Window.Ensure, a write anywhere around the window
				seq := mw.base - 4 + arg%40
				c := w.Ensure(seq)
				if seq < mw.base {
					if *c != 0 {
						t.Fatalf("step %d: scratch cell for released %d reads %d", step, seq, *c)
					}
					*c = -val // must reach no live cell
					break
				}
				*c = val
				mw.cells[seq] = val
				mw.top = max(mw.top, seq+1)
			case 2:
				n := mw.base - 2 + arg%30
				w.ReleaseThrough(n)
				mw.release(n)
			case 3:
				floor := arg % 32
				w.OpenAt(floor)
				mw.openAt(floor)
			case 4: // Prefix.Mark
				seq := mp.base - 4 + arg%40
				p.Mark(seq)
				if seq >= mp.base {
					mp.marked[seq] = true
					mp.top = max(mp.top, seq+1)
				}
			case 5, 6:
				n := mp.base - 2 + arg%30
				p.ReleaseThrough(n)
				mp.release(min(n, mp.held()))
			case 7:
				floor := arg % 32
				p.OpenAt(floor)
				mp.openAt(floor)
			case 8, 9, 10, 11: // Rows.Ensure
				seq, col := mr.base-4+arg%40, int(op/16)%width
				c := r.Ensure(seq, col)
				if seq < mr.base {
					if *c != 0 {
						t.Fatalf("step %d: scratch cell for released row %d reads %d", step, seq, *c)
					}
					*c = -val
					break
				}
				*c = val
				mr.cells[[2]int{seq, col}] = val
				mr.top = max(mr.top, seq+1)
			case 12:
				col := arg % width
				r.ClearColumn(col)
				for k := range mr.cells {
					if k[1] == col {
						delete(mr.cells, k)
					}
				}
			case 13, 14:
				n := mr.base - 2 + arg%30
				r.ReleaseThrough(n)
				if n > mr.base {
					for k := range mr.cells {
						if k[0] < n {
							delete(mr.cells, k)
						}
					}
					mr.base, mr.top = n, max(mr.top, n)
				}
			default:
				floor := arg % 32
				r.OpenAt(floor)
				*mr = rowsModel{base: floor, top: floor, cells: map[[2]int]int{}}
			}
			check(step, op, ops[step+1])
		}
	})
}
