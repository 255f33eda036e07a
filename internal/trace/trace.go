// Package trace models IP multicast transmission traces in the style of
// Yajnik et al. (GLOBECOM 1996), the data the paper's evaluation replays.
//
// A trace couples a static multicast tree with per-receiver binary loss
// sequences: loss(r)(i) = 1 iff receiver r never received packet i from
// the original transmission. The original MBone traces are not publicly
// available, so this package also provides a calibrated synthetic
// generator (see gilbert.go) and a catalog reproducing the shape of the
// paper's Table 1 (see catalog.go).
package trace

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"cesrm/internal/topology"
)

// Trace is a single-source IP multicast transmission trace. Its tables
// are sparse (a bit per receiver-packet, ground truth for lossy packets
// only): read them through the accessors, build them with FromRows.
type Trace struct {
	// Name identifies the trace (e.g. "RFV960419").
	Name string
	// Tree is the static dissemination topology; its root is the source
	// and its leaves are the receivers.
	Tree *topology.Tree
	// Period is the constant inter-packet transmission interval.
	Period time.Duration
	// Packets is the number of packets transmitted.
	Packets int
	// Loss holds one bitset per receiver, in Tree.Receivers() order:
	// bit i&63 of Loss[r][i>>6] is set iff receiver r lost packet i.
	// Every row has (Packets+63)/64 words and the bits from Packets up
	// are zero, so whole-word reads (popcounts, run scans) need no mask.
	Loss [][]uint64
	// TrueDrops optionally records, per lossy packet, the ground-truth
	// links that dropped the packet (minimal: links whose upstream path
	// was loss-free). Synthetic traces carry it for validating the link
	// inference of §4.2; it must never feed the simulation itself.
	TrueDrops *DropTable
}

// DropTable lists links per packet in compressed sparse rows: only
// packets with a non-empty list have a row.
type DropTable struct {
	// Seqs holds, ascending, the packets that have a row.
	Seqs []int32
	// Offs has len(Seqs)+1 entries; row k is Links[Offs[k]:Offs[k+1]].
	Offs []int32
	// Links is every row back to back.
	Links []topology.LinkID
}

// add appends the row of packet seq, which must exceed every packet
// added before; an empty row is not stored.
func (d *DropTable) add(seq int, links []topology.LinkID) {
	if len(links) == 0 {
		return
	}
	if len(d.Offs) == 0 {
		d.Offs = append(d.Offs, 0)
	}
	d.Seqs = append(d.Seqs, int32(seq))
	d.Links = append(d.Links, links...)
	d.Offs = append(d.Offs, int32(len(d.Links)))
}

// FromRows builds a trace from dense tables: loss[r][i] reports whether
// receiver r lost packet i, and drops, when non-nil, holds packet i's
// ground-truth links at drops[i].
func FromRows(name string, tree *topology.Tree, period time.Duration, loss [][]bool, drops [][]topology.LinkID) (*Trace, error) {
	t := &Trace{Name: name, Tree: tree, Period: period, Loss: make([][]uint64, len(loss))}
	if len(loss) > 0 {
		t.Packets = len(loss[0])
	}
	for r, row := range loss {
		if len(row) != t.Packets {
			return nil, fmt.Errorf("trace %q: receiver %d has %d packets, others %d", name, r, len(row), t.Packets)
		}
		t.Loss[r] = make([]uint64, (t.Packets+63)/64)
		for i, lost := range row {
			if lost {
				t.Loss[r][i>>6] |= 1 << (i & 63)
			}
		}
	}
	if drops != nil {
		if len(drops) != t.Packets {
			return nil, fmt.Errorf("trace %q: %d TrueDrops entries for %d packets", name, len(drops), t.Packets)
		}
		t.TrueDrops = &DropTable{}
		for i, links := range drops {
			t.TrueDrops.add(i, links)
		}
	}
	return t, t.Validate()
}

// Validate checks internal consistency.
func (t *Trace) Validate() error {
	if t.Tree == nil {
		return fmt.Errorf("trace %q: nil tree", t.Name)
	}
	if len(t.Loss) != t.Tree.NumReceivers() {
		return fmt.Errorf("trace %q: %d loss rows for %d receivers", t.Name, len(t.Loss), t.Tree.NumReceivers())
	}
	if t.Period <= 0 {
		return fmt.Errorf("trace %q: non-positive period %v", t.Name, t.Period)
	}
	if t.Packets <= 0 {
		return fmt.Errorf("trace %q: no packets", t.Name)
	}
	words := (t.Packets + 63) / 64
	for r, row := range t.Loss {
		if len(row) != words {
			return fmt.Errorf("trace %q: receiver %d has %d loss words for %d packets", t.Name, r, len(row), t.Packets)
		}
		if used := t.Packets & 63; used != 0 && row[words-1]>>used != 0 {
			return fmt.Errorf("trace %q: receiver %d has loss bits past packet %d", t.Name, r, t.Packets)
		}
	}
	if d := t.TrueDrops; d != nil && len(d.Seqs) > 0 {
		if len(d.Offs) != len(d.Seqs)+1 || d.Offs[0] != 0 || int(d.Offs[len(d.Seqs)]) != len(d.Links) {
			return fmt.Errorf("trace %q: TrueDrops offsets do not span %d rows of %d links", t.Name, len(d.Seqs), len(d.Links))
		}
		for k, seq := range d.Seqs {
			if int(seq) >= t.Packets || seq < 0 || k > 0 && seq <= d.Seqs[k-1] || d.Offs[k+1] <= d.Offs[k] {
				return fmt.Errorf("trace %q: TrueDrops row %d (packet %d of %d) out of order or empty", t.Name, k, seq, t.Packets)
			}
		}
	}
	return nil
}

// NumPackets returns the number of packets transmitted.
func (t *Trace) NumPackets() int { return t.Packets }

// NumReceivers returns the receiver count.
func (t *Trace) NumReceivers() int { return len(t.Loss) }

// Duration returns the transmission duration, NumPackets * Period.
func (t *Trace) Duration() time.Duration {
	return time.Duration(t.NumPackets()) * t.Period
}

// Lost reports whether receiver index r lost packet i.
func (t *Trace) Lost(r, i int) bool { return t.Loss[r][i>>6]>>(i&63)&1 != 0 }

// TrueDropsAt returns the ground-truth links that dropped packet i: nil
// when nobody lost it or the trace carries no ground truth. The slice
// aliases the trace and must not be modified.
func (t *Trace) TrueDropsAt(i int) []topology.LinkID {
	d := t.TrueDrops
	if d == nil {
		return nil
	}
	k, ok := slices.BinarySearch(d.Seqs, int32(i))
	if !ok {
		return nil
	}
	return d.Links[d.Offs[k]:d.Offs[k+1]:d.Offs[k+1]]
}

// NextLossy returns the first packet at or after from that some receiver
// lost, or NumPackets when there is none. Loss locality leaves most
// 64-packet words clear in every row, so walking the lossy packets this
// way skips the bulk of a trace a word at a time.
func (t *Trace) NextLossy(from int) int {
	for w := from >> 6; w < (t.Packets+63)/64; w++ {
		var any uint64
		for _, row := range t.Loss {
			any |= row[w]
		}
		if w == from>>6 {
			any &= ^uint64(0) << (from & 63)
		}
		if any != 0 {
			return w<<6 + bits.TrailingZeros64(any)
		}
	}
	return t.Packets
}

// ReceiverIndex maps a receiver node to its row in Loss, or -1.
func (t *Trace) ReceiverIndex(n topology.NodeID) int {
	for i, r := range t.Tree.Receivers() {
		if r == n {
			return i
		}
	}
	return -1
}

// TotalLosses returns the aggregate loss count across all receivers
// (the "# of Losses" column of Table 1).
func (t *Trace) TotalLosses() int {
	total := 0
	for r := range t.Loss {
		total += t.ReceiverLosses(r)
	}
	return total
}

// ReceiverLosses returns the loss count of receiver index r.
func (t *Trace) ReceiverLosses(r int) int {
	n := 0
	for _, w := range t.Loss[r] {
		n += bits.OnesCount64(w)
	}
	return n
}

// LostReceivers appends the indices of the receivers that lost packet i
// to buf (ascending) and returns it: packet i's loss pattern. An empty
// result means nobody lost the packet.
func (t *Trace) LostReceivers(i int, buf []int) []int {
	for r := range t.Loss {
		if t.Lost(r, i) {
			buf = append(buf, r)
		}
	}
	return buf
}

// Stats summarizes a trace for Table 1 style reporting.
type Stats struct {
	Name      string
	Receivers int
	TreeDepth int
	Period    time.Duration
	Duration  time.Duration
	Packets   int
	Losses    int
}

// ComputeStats derives the Table 1 row for the trace.
func (t *Trace) ComputeStats() Stats {
	return Stats{
		Name:      t.Name,
		Receivers: t.NumReceivers(),
		TreeDepth: t.Tree.MaxDepth(),
		Period:    t.Period,
		Duration:  t.Duration(),
		Packets:   t.NumPackets(),
		Losses:    t.TotalLosses(),
	}
}

// String formats the stats as a Table 1 style row.
func (s Stats) String() string {
	return fmt.Sprintf("%-10s rcvrs=%-3d depth=%d period=%v dur=%v pkts=%d losses=%d",
		s.Name, s.Receivers, s.TreeDepth, s.Period, s.Duration.Round(time.Second), s.Packets, s.Losses)
}

// MeanBurstLength returns the average length of consecutive-loss runs
// across all receivers, a direct measure of the temporal loss locality
// CESRM exploits. Returns 0 when the trace has no losses.
func (t *Trace) MeanBurstLength() float64 {
	bursts, lost := 0, 0
	for _, row := range t.Loss {
		var carry uint64 // the previous packet's bit
		for _, w := range row {
			lost += bits.OnesCount64(w)
			// A burst starts at every set bit whose predecessor is clear.
			bursts += bits.OnesCount64(w &^ (w<<1 | carry))
			carry = w >> 63
		}
	}
	if bursts == 0 {
		return 0
	}
	return float64(lost) / float64(bursts)
}
