package main

import (
	"crypto/sha256"
	"sort"
	"time"
)

// The host probe. The sandbox this benchmark runs on shares its cores and
// caches with other tenants, and for tens of seconds to minutes at a time
// everything runs 15-50 % slower: user CPU time grows with the wall clock,
// steal time stays at zero, the collector's share does not move, and
// identical passes of one workload ten seconds apart differ by more than
// any bound the driver could apply (measured 2026-09-28: 55 consecutive
// wide_group passes ranged 9.6-13.4 s; ten driver-style runs 9.8-15.8 s).
// Ten runs within three minutes cannot average that out.
//
// So every timed pass carries a yardstick: a fixed slice of ordinary Go
// work — sorting, map iteration and lookup, hashing, over a couple of
// megabytes — that belongs to the benchmark, touches nothing of the
// program under test, and is run every quarter of a second from inside
// the pass (on the simulator's monitor tick, after a replay). Its time is
// taken out of the pass's wall time, and the time-based end-to-end
// metrics are reported in quiet-host seconds: the measured seconds
// divided by how many times slower than on a quiet host the yardstick
// ran during that same pass. The measured seconds and the yardstick's
// reading are reported beside them (host.wall_raw_s, host.slowdown).
//
// It is a blunt instrument. How hard a neighbour hits a piece of code
// depends on what the neighbour does and on how much cache the code
// needs, and one yardstick cannot track five workloads through every kind
// of contention: over 74 passes and 50 driver-style runs the correction
// took the worst interquartile spread of wall_s from 35 % to 17 % of the
// median, but made a quiet paper_suite series worse (8 % to 15 %). See
// README.md for the numbers.

const (
	probeKeys = 1 << 15
	// probeQuietNS is what one yardstick run takes on this sandbox when
	// no neighbour is busy. It only fixes the unit: both sides of any
	// comparison are divided by the same constant.
	probeQuietNS = 3.0e6
	// probeEvery spaces the yardstick runs.
	probeEvery = 250 * time.Millisecond
)

// hostProbe holds the yardstick's fixed inputs.
type hostProbe struct {
	master, scratch []int
	index           map[int]int
	block           []byte
	sink            int
}

func newHostProbe() *hostProbe {
	p := &hostProbe{
		master:  make([]int, probeKeys),
		scratch: make([]int, probeKeys),
		index:   make(map[int]int, probeKeys),
		block:   make([]byte, 256<<10),
	}
	rng := uint64(0x9E3779B97F4A7C15)
	for i := range p.master {
		rng = rng*6364136223846793005 + 1442695040888963407
		p.master[i] = int(rng >> 24)
		p.index[p.master[i]] = i
	}
	return p
}

// sample runs the yardstick once and returns how many times slower than
// on a quiet host it ran.
func (p *hostProbe) sample() float64 {
	started := time.Now()
	copy(p.scratch, p.master)
	sort.Ints(p.scratch)
	sum := 0
	for k, v := range p.index {
		sum += k ^ v
	}
	for _, v := range p.scratch[:probeKeys/4] {
		sum += p.index[v]
	}
	h := sha256.Sum256(p.block)
	p.sink += sum + int(h[0])
	return float64(time.Since(started)) / probeQuietNS
}
