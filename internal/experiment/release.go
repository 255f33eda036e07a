package experiment

import (
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
)

// watermarkRelease is the monitor's mid-run release of fully-recovered
// per-packet state (RunConfig.ReleaseRecovered). The watermark is the
// minimum, over the hosts present in the group — neither crashed nor
// absent — of what each could discard right now. A departed host has no
// say and is left alone: it is silent, its timers are cancelled, Deliver
// returns before touching its state, and Join throws its reception
// state away, so nothing it holds can be referenced again. A host that
// (re)joined votes 0 until its first post-join evidence opens its
// stream at the late-join floor, and its held prefix from then on.
//
// Release runs on the monitor cadence with a two-tick lag: the
// watermark observed at tick t is discarded at t + 2, by which point
// every message and timer that was in flight for that prefix at t —
// request, reply timer, reply, abstinence — has long drained (the chain
// is bounded by a few link delays, far below two session periods). It
// is discarded only up to the smallest prefix the present hosts hold at
// t + 1 and at t + 2, so a host that joined inside the lag holds the
// release back with its own vote until it, too, has held the prefix for
// the full lag. Without churn held prefixes only grow and that re-check
// never binds. Release touches no engine state, so the event stream,
// finish time and fingerprint are identical with it on or off, and
// delaying one is inert by construction.
//
// That a joiner's floor never lies below what was already released is
// the drain-lag argument again (DESIGN.md §12): every present host's
// highest known sequence number is at least released − 1 and nothing in
// flight names an older one, so whichever evidence arrives first — a
// data or reply packet, an advert, a request — places the floor at or
// above the watermark. The argument is checked, not trusted: a present
// host whose stream is based below the watermark is a validator
// violation and ends the run. Clamping the floor instead would keep the
// run alive and make it differ from the same run with release off.
type watermarkRelease struct {
	source topology.NodeID
	// hosts orders the scans; members is the run's NodeID-indexed table.
	hosts   []topology.NodeID
	members []endpoint
	// group is the run's member group, nil for LMS: it scans and
	// releases its reply plane row-wise, where LMS hosts scan their own
	// state one by one.
	group      *srm.Group
	validator  *stats.Validator
	numPackets int

	// ready and next are the watermarks observed two ticks and one tick
	// ago, heldPrev the smallest held prefix one tick ago; released is
	// the prefix already discarded.
	ready, next, heldPrev, released int
	// scanned counts the per-packet cells the watermark scans have read.
	scanned uint64
	// unsound records a floor found below the released watermark.
	unsound bool
}

// present reports whether the host is in the group: neither crashed nor
// departed.
func present(in endpoint) bool { return !in.Crashed() && !in.Absent() }

// watermarkCheck, when non-nil, is handed every grouped tick's row-wise
// watermark and the one the per-host scans compute; tests install it.
var watermarkCheck func(grouped, perHost int)

// tick discards what the lag has cleared, then observes the watermark.
func (r *watermarkRelease) tick(now sim.Time) {
	held := r.heldPrefix()
	if n := min(r.ready, r.heldPrev, held); n > r.released {
		for _, id := range r.hosts {
			if in := r.members[id]; present(in) {
				in.ReleaseThrough(r.source, n)
			}
		}
		r.group.ReleaseThrough(r.source, n)
		r.validator.ReleaseThrough(r.source, n)
		r.released = n
	}
	r.ready, r.next, r.heldPrev = r.next, r.watermark(now, held), held
}

// heldPrefix returns the smallest prefix held contiguously by every
// present host — 0 while one of them has no state for the stream — and
// checks each open stream's base against the released watermark.
func (r *watermarkRelease) heldPrefix() int {
	w := r.numPackets
	for _, id := range r.hosts {
		in := r.members[id]
		if !present(in) {
			continue
		}
		base, held, open := in.HeldWindow(r.source)
		switch {
		case !open:
			held = 0
		case base < r.released:
			r.validator.NoteFloorBelowRelease(id, r.source, base, r.released)
			r.unsound = true
		}
		w = min(w, held)
	}
	return w
}

// watermark returns the prefix every present host could discard right
// now, given the smallest held prefix. That bound costs O(1) a host, so
// it is taken first and reply state is scanned only up to it: while one
// host pins the watermark — a downed link, an abandoned loss — a tick
// costs O(hosts), not O(hosts × the backlog behind the stall). A group
// scans its plane once, row by row; without one each host scans its own
// state.
func (r *watermarkRelease) watermark(now sim.Time, held int) int {
	if r.group == nil {
		w, visited := r.hostScan(held)
		r.scanned += visited
		return w
	}
	n, visited := r.group.ReleasableBelow(now, r.source, held)
	r.scanned += uint64(visited)
	w := min(held, n)
	if watermarkCheck != nil {
		perHost, _ := r.hostScan(held)
		watermarkCheck(w, perHost)
	}
	return w
}

// hostScan is the watermark as the minimum of each present host's own
// scan, plus the cells the scans read: LMS's release scan, and the
// grouped scan's test oracle.
func (r *watermarkRelease) hostScan(held int) (w int, visited uint64) {
	w = held
	for _, id := range r.hosts {
		in := r.members[id]
		if !present(in) {
			continue
		}
		n, cells := in.ReleasableBelow(r.source, w)
		visited += uint64(cells)
		w = min(w, n)
	}
	return w, visited
}
