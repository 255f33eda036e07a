package stats

import (
	"cesrm/internal/seqwin"
	"cesrm/internal/topology"
)

// seqTable is a dense replacement for map[hostSeq]T: per-host, per-source
// slices indexed by sequence number. Host IDs are dense (tree node
// indices), sequence numbers are contiguous from 0, and the number of
// sources per run is tiny, so a linear scan over a host's streams beats
// hashing a 3-field key on every per-packet observation. The zero value
// is empty and usable.
//
// Each stream is a seqwin.Window, whose released-prefix contract (reads
// below the watermark are absent, writes land in a scratch cell) keeps
// a full-scale run's per-packet audit state bounded by the in-flight
// window instead of the whole transmission.
type seqTable[T any] struct {
	hosts [][]seqStream[T]
}

// seqStream holds one (host, source) stream's per-seq values.
type seqStream[T any] struct {
	source topology.NodeID
	vals   seqwin.Window[T]
}

// get returns a pointer to the value for (host, source, seq), or nil
// when no value was ever stored at or beyond that coordinate, or the
// coordinate was released.
func (t *seqTable[T]) get(host, source topology.NodeID, seq int) *T {
	if int(host) >= len(t.hosts) || seq < 0 {
		return nil
	}
	for i := range t.hosts[host] {
		s := &t.hosts[host][i]
		if s.source == source {
			return s.vals.Get(seq)
		}
	}
	return nil
}

// ensure returns a pointer to the value for (host, source, seq),
// growing the table as needed. New cells are zero values. A released
// coordinate yields the zeroed scratch cell.
func (t *seqTable[T]) ensure(host, source topology.NodeID, seq int) *T {
	for int(host) >= len(t.hosts) {
		t.hosts = append(t.hosts, nil)
	}
	for i := range t.hosts[host] {
		if s := &t.hosts[host][i]; s.source == source {
			return s.vals.Ensure(seq)
		}
	}
	t.hosts[host] = append(t.hosts[host], seqStream[T]{source: source})
	return t.hosts[host][len(t.hosts[host])-1].vals.Ensure(seq)
}

// releaseThrough discards, on every host, the cells of the given
// source's stream with sequence numbers below n.
func (t *seqTable[T]) releaseThrough(source topology.NodeID, n int) {
	for h := range t.hosts {
		for i := range t.hosts[h] {
			if s := &t.hosts[h][i]; s.source == source {
				s.vals.ReleaseThrough(n)
			}
		}
	}
}

// liveCells counts cells currently held across all hosts and streams.
func (t *seqTable[T]) liveCells() int {
	n := 0
	for h := range t.hosts {
		for i := range t.hosts[h] {
			n += t.hosts[h][i].vals.Len()
		}
	}
	return n
}

// resetHost discards every stored cell of one host. A restarted host
// rejoins with amnesia and legitimately re-detects and re-recovers
// packets its previous incarnation already audited.
func (t *seqTable[T]) resetHost(host topology.NodeID) {
	if int(host) < len(t.hosts) {
		t.hosts[host] = nil
	}
}

// reserve pre-sizes the host axis for hosts 0..n-1.
func (t *seqTable[T]) reserve(n int) {
	if n > cap(t.hosts) {
		hosts := make([][]seqStream[T], len(t.hosts), n)
		copy(hosts, t.hosts)
		t.hosts = hosts
	}
	for len(t.hosts) < n {
		t.hosts = append(t.hosts, nil)
	}
}
