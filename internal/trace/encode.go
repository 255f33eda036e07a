package trace

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"
	"time"

	"cesrm/internal/topology"
)

// The on-disk trace format is a line-oriented text format:
//
//	cesrm-trace v1
//	name <name>
//	period <duration>
//	packets <n>
//	tree <parent parent ...>        (-1 marks the root)
//	recv <rle>                      (one line per receiver, tree order)
//	end
//
// Loss sequences are run-length encoded as alternating run lengths
// starting with a received (0) run: "100 3 42 1" means 100 received,
// 3 lost, 42 received, 1 lost. Ground-truth drop links are not
// serialized; they are a property of synthetic generation only.

// Marshal writes t to w in the text format.
func Marshal(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "cesrm-trace v1")
	fmt.Fprintf(bw, "name %s\n", t.Name)
	fmt.Fprintf(bw, "period %s\n", t.Period)
	fmt.Fprintf(bw, "packets %d\n", t.NumPackets())
	bw.WriteString("tree")
	for _, p := range t.Tree.ParentVector() {
		fmt.Fprintf(bw, " %d", p)
	}
	bw.WriteByte('\n')
	for _, row := range t.Loss {
		bw.WriteString("recv")
		for _, run := range rleEncode(row, t.Packets) {
			fmt.Fprintf(bw, " %d", run)
		}
		bw.WriteByte('\n')
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// Unmarshal parses a trace in the text format.
func Unmarshal(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	line := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}
	hdr, err := line()
	if err != nil {
		return nil, err
	}
	if hdr != "cesrm-trace v1" {
		return nil, fmt.Errorf("trace: bad header %q", hdr)
	}
	t := &Trace{Packets: -1}
	for {
		l, err := line()
		if err != nil {
			return nil, err
		}
		if l == "end" {
			break
		}
		field, rest, _ := strings.Cut(l, " ")
		switch field {
		case "name":
			t.Name = rest
		case "period":
			p, err := time.ParseDuration(rest)
			if err != nil {
				return nil, fmt.Errorf("trace: bad period: %w", err)
			}
			t.Period = p
		case "packets":
			t.Packets, err = strconv.Atoi(rest)
			if err != nil {
				return nil, fmt.Errorf("trace: bad packet count: %w", err)
			}
		case "tree":
			parents, err := parseInts(rest)
			if err != nil {
				return nil, fmt.Errorf("trace: bad tree: %w", err)
			}
			pv := make([]topology.NodeID, len(parents))
			for i, p := range parents {
				pv[i] = topology.NodeID(p)
			}
			tree, err := topology.New(pv)
			if err != nil {
				return nil, fmt.Errorf("trace: %w", err)
			}
			t.Tree = tree
		case "recv":
			if t.Packets < 0 {
				return nil, fmt.Errorf("trace: recv line before packets line")
			}
			runs, err := parseInts(rest)
			if err != nil {
				return nil, fmt.Errorf("trace: bad recv line: %w", err)
			}
			if t.Packets > maxCells/(len(t.Loss)+1) {
				return nil, fmt.Errorf("trace: %d receivers of %d packets exceed the decoder's %d cells", len(t.Loss)+1, t.Packets, maxCells)
			}
			row, err := rleDecode(runs, t.Packets)
			if err != nil {
				return nil, err
			}
			t.Loss = append(t.Loss, row)
		default:
			return nil, fmt.Errorf("trace: unknown field %q", field)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func parseInts(s string) ([]int, error) {
	fields := strings.Fields(s)
	out := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// maxCells bounds the receiver-packets of a decoded trace (128 MB of
// bitsets). Run lengths compress without limit, so without a bound a
// few bytes of input could ask for any amount of memory.
const maxCells = 1 << 30

// nextBit returns the first position at or after from whose bit in row
// equals set, or len(row)*64 when there is none.
func nextBit(row []uint64, from int, set bool) int {
	for w := from >> 6; w < len(row); w++ {
		word := row[w]
		if !set {
			word = ^word
		}
		if w == from>>6 {
			word &= ^uint64(0) << (from & 63)
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return len(row) << 6
}

// lostRuns calls yield with each maximal run [start, end) of lost
// packets in a loss bitset of the given packet count, in order.
func lostRuns(row []uint64, packets int, yield func(start, end int)) {
	for start := nextBit(row, 0, true); start < packets; {
		end := min(nextBit(row, start, false), packets)
		yield(start, end)
		start = nextBit(row, end, true)
	}
}

// rleEncode encodes a loss bitset as alternating run lengths starting
// with a received run; a leading zero appears when the row starts with
// a loss.
func rleEncode(row []uint64, packets int) []int {
	var runs []int
	prev := 0
	lostRuns(row, packets, func(start, end int) {
		runs = append(runs, start-prev, end-start)
		prev = end
	})
	if prev < packets || runs == nil {
		runs = append(runs, packets-prev)
	}
	return runs
}

// rleDecode reverses rleEncode. It sums the runs before it allocates,
// so a header that lies about the packet count costs nothing.
func rleDecode(runs []int, packets int) ([]uint64, error) {
	sum := 0
	for _, run := range runs {
		if run < 0 || run > packets-sum {
			return nil, fmt.Errorf("trace: run length %d outside the %d packets left", run, packets-sum)
		}
		sum += run
	}
	if sum != packets {
		return nil, fmt.Errorf("trace: run lengths sum to %d, want %d packets", sum, packets)
	}
	row := make([]uint64, (packets+63)/64)
	pos := 0
	for k, run := range runs {
		if k&1 == 1 {
			// Fill [pos, pos+run) a word at a time.
			for i, end := pos, pos+run; i < end; {
				n := min(64-i&63, end-i)
				row[i>>6] |= ^uint64(0) >> (64 - n) << (i & 63)
				i += n
			}
		}
		pos += run
	}
	return row, nil
}
