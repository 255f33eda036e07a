// Package stats collects and aggregates protocol events into the
// metrics the paper's evaluation reports: per-receiver normalized
// recovery times (Figure 1), expedited/non-expedited latency splits
// (Figure 2), per-receiver request and reply counts split by kind
// (Figures 3 and 4), expedited success ratios and transmission overhead
// (Figure 5).
package stats

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// Recovery records one completed loss recovery on one host.
type Recovery struct {
	Host topology.NodeID
	// Source identifies the stream the recovered packet belongs to.
	Source      topology.NodeID
	Seq         int
	DetectedAt  sim.Time
	RecoveredAt sim.Time
	// Expedited reports recovery via a CESRM expedited reply.
	Expedited bool
	// OwnRequests counts repair requests the host itself sent for the
	// packet; Reschedules counts suppression back-offs. A "first round"
	// recovery has OwnRequests+Reschedules <= 1.
	OwnRequests int
	Reschedules int
	Requestor   topology.NodeID
	Replier     topology.NodeID
}

// FirstRound reports whether the recovery completed within the first
// recovery round (no back-off beyond the initial request schedule).
func (r Recovery) FirstRound() bool { return r.OwnRequests+r.Reschedules <= 1 }

// Latency is the detection-to-recovery delay.
func (r Recovery) Latency() time.Duration { return r.RecoveredAt.Sub(r.DetectedAt) }

// HostCounts tallies per-host message transmissions.
type HostCounts struct {
	Requests    int // multicast repair requests
	ExpRequests int // unicast expedited requests
	Replies     int // multicast repair replies (retransmissions)
	ExpReplies  int // expedited replies
	Sessions    int
}

// Collector implements srm.Observer, accumulating events during a
// simulation run. Construct with New; per-host state lives in dense
// NodeID-indexed tables (not maps), because the observer sits on every
// detection, recovery and transmission of a run. Reserve pre-sizes them
// when the host count is known up front. A recovery's facts, its
// detection instant included, arrive whole in the Recovered event, so
// the collector keeps no per-packet table.
type Collector struct {
	recoveries []Recovery
	counts     []HostCounts // NodeID-indexed transmission counters
	lossCount  []int        // NodeID-indexed detected-loss counts
	abandons   []int        // NodeID-indexed abandoned-loss counts
	// expKeys holds one key per expedited request, duplicates included;
	// ExpRequestedPackets sorts and compacts them.
	expKeys []ExpRequestKey

	// Streaming-aggregate mode (StreamAggregates): recoveries fold into
	// agg as they complete instead of being retained. A retained
	// collector folds its records through the same aggregates.add at
	// query time, in completion order, so the float64 sums, and
	// therefore run fingerprints, are bit-identical between the two
	// modes.
	streaming bool
	rtt       RTTFunc
	agg       aggregates
}

// latencyAccum is one running normalized-latency aggregation.
type latencyAccum struct {
	n   int
	sum float64
}

func (a *latencyAccum) add(x float64) { a.n++; a.sum += x }

func (a latencyAccum) summary() LatencySummary {
	if a.n == 0 {
		return LatencySummary{}
	}
	return LatencySummary{Count: a.n, MeanRTT: a.sum / float64(a.n)}
}

// aggregates are the normalized-latency folds every aggregate method
// answers from: per host overall, expedited and non-expedited, plus
// first-round non-expedited and overall across hosts.
type aggregates struct {
	perHost    []latencyAccum // overall, NodeID-indexed
	perHostExp []latencyAccum // expedited only
	perHostStd []latencyAccum // non-expedited only
	overall    latencyAccum
	firstRound latencyAccum // non-expedited first-round, all hosts
}

// add folds one recovery, normalized by its host's rtt basis; a host
// without a positive basis contributes to no aggregate.
func (g *aggregates) add(r Recovery, rtt RTTFunc) {
	basis := rtt(r.Host)
	if basis <= 0 {
		return
	}
	x := float64(r.Latency()) / float64(basis)
	g.perHost = grown(g.perHost, int(r.Host))
	g.perHost[r.Host].add(x)
	if r.Expedited {
		g.perHostExp = grown(g.perHostExp, int(r.Host))
		g.perHostExp[r.Host].add(x)
	} else {
		g.perHostStd = grown(g.perHostStd, int(r.Host))
		g.perHostStd[r.Host].add(x)
		if r.FirstRound() {
			g.firstRound.add(x)
		}
	}
	g.overall.add(x)
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// Reserve pre-sizes the per-host tables for node IDs 0..n-1, avoiding
// growth re-slicing during the run.
func (c *Collector) Reserve(n int) {
	if n > len(c.counts) {
		counts := make([]HostCounts, n)
		copy(counts, c.counts)
		c.counts = counts
	}
	if n > len(c.lossCount) {
		lossCount := make([]int, n)
		copy(lossCount, c.lossCount)
		c.lossCount = lossCount
	}
}

var _ srm.Observer = (*Collector)(nil)

// StreamAggregates switches the collector to streaming-aggregate mode:
// each completed recovery folds into online accumulators (normalized
// with rtt) instead of being retained as a Recovery record. The
// aggregate methods then answer from the accumulators — their RTTFunc
// argument is ignored, rtt installed here applies — while Recoveries
// and NormalizedPercentile, which need the retained records, report
// empty. Call before the run starts.
func (c *Collector) StreamAggregates(rtt RTTFunc) {
	c.streaming = true
	c.rtt = rtt
}

// grown returns s extended to cover index idx, growing geometrically
// rather than one element per append so dense NodeID-indexed tables
// never re-slice once per host.
func grown[T any](s []T, idx int) []T {
	if idx < len(s) {
		return s
	}
	n := idx + 1
	if n <= cap(s) {
		// make zeroes the whole backing array up front, so extending
		// within capacity exposes zero values only.
		return s[:n]
	}
	capacity := 2 * cap(s)
	if capacity < n {
		capacity = n
	}
	if capacity < 8 {
		capacity = 8
	}
	t := make([]T, n, capacity)
	copy(t, s)
	return t
}

func (c *Collector) host(h topology.NodeID) *HostCounts {
	c.counts = grown(c.counts, int(h))
	return &c.counts[h]
}

// LossDetected implements srm.Observer.
func (c *Collector) LossDetected(host, source topology.NodeID, seq int, at sim.Time) {
	c.lossCount = grown(c.lossCount, int(host))
	c.lossCount[host]++
}

// Recovered implements srm.Observer.
func (c *Collector) Recovered(host, source topology.NodeID, seq int, at sim.Time, info srm.RecoveryInfo) {
	r := Recovery{
		Host:        host,
		Source:      source,
		Seq:         seq,
		DetectedAt:  info.DetectedAt,
		RecoveredAt: at,
		Expedited:   info.Expedited,
		OwnRequests: info.OwnRequests,
		Reschedules: info.Reschedules,
		Requestor:   info.Requestor,
		Replier:     info.Replier,
	}
	if c.streaming {
		c.agg.add(r, c.rtt)
		return
	}
	c.recoveries = append(c.recoveries, r)
}

// ReleasePacketsThrough does nothing: the collector keeps no per-packet
// state to release. It remains because the benchmark still calls it.
func (c *Collector) ReleasePacketsThrough(source topology.NodeID, n int) {}

// RequestSent implements srm.Observer.
func (c *Collector) RequestSent(host, source topology.NodeID, seq int, round int) {
	c.host(host).Requests++
}

// ExpRequestSent implements srm.Observer.
func (c *Collector) ExpRequestSent(host, source topology.NodeID, seq int) {
	c.host(host).ExpRequests++
	c.expKeys = append(c.expKeys, ExpRequestKey{Host: host, Source: source, Seq: seq})
}

// ReplySent implements srm.Observer.
func (c *Collector) ReplySent(host, source topology.NodeID, seq int, expedited bool) {
	if expedited {
		c.host(host).ExpReplies++
	} else {
		c.host(host).Replies++
	}
}

// SessionSent implements srm.Observer.
func (c *Collector) SessionSent(host topology.NodeID) {
	c.host(host).Sessions++
}

// RequestAbandoned implements srm.Observer.
func (c *Collector) RequestAbandoned(host, source topology.NodeID, seq int, rounds int) {
	c.abandons = grown(c.abandons, int(host))
	c.abandons[host]++
}

// Abandoned returns the number of losses host gave up on after the
// bounded-retry limit.
func (c *Collector) Abandoned(host topology.NodeID) int {
	if int(host) >= len(c.abandons) {
		return 0
	}
	return c.abandons[host]
}

// TotalAbandoned sums abandoned losses over all hosts.
func (c *Collector) TotalAbandoned() int {
	total := 0
	for _, n := range c.abandons {
		total += n
	}
	return total
}

// Recoveries returns all recorded recoveries in completion order. In
// streaming-aggregate mode records are not retained and this is empty;
// use the aggregate methods instead.
func (c *Collector) Recoveries() []Recovery { return c.recoveries }

// Losses returns the number of losses detected by host.
func (c *Collector) Losses(host topology.NodeID) int {
	if int(host) >= len(c.lossCount) {
		return 0
	}
	return c.lossCount[host]
}

// Counts returns the per-host transmission counters for host.
func (c *Collector) Counts(host topology.NodeID) HostCounts {
	if int(host) >= len(c.counts) {
		return HostCounts{}
	}
	return c.counts[host]
}

// TotalCounts sums transmission counters over all hosts.
func (c *Collector) TotalCounts() HostCounts {
	var t HostCounts
	for i := range c.counts {
		hc := &c.counts[i]
		t.Requests += hc.Requests
		t.ExpRequests += hc.ExpRequests
		t.Replies += hc.Replies
		t.ExpReplies += hc.ExpReplies
		t.Sessions += hc.Sessions
	}
	return t
}

// ExpeditedSuccessRatio returns #expedited replies / #expedited
// requests, the Figure 5 (left) metric, and false when no expedited
// requests were sent.
func (c *Collector) ExpeditedSuccessRatio() (float64, bool) {
	t := c.TotalCounts()
	if t.ExpRequests == 0 {
		return 0, false
	}
	return float64(t.ExpReplies) / float64(t.ExpRequests), true
}

// ExpRequestKey identifies one expedited request by host, stream and
// sequence number.
type ExpRequestKey struct {
	Host   topology.NodeID
	Source topology.NodeID
	Seq    int
}

// ExpRequestedPackets returns the distinct (host, source, seq) triples
// for which expedited requests were sent, ordered by host, then stream,
// then sequence number. The experiment layer joins these against the
// trace to count spurious expedited requests — requests chasing packets
// that were merely reordered, not lost (§3.2).
func (c *Collector) ExpRequestedPackets() []ExpRequestKey {
	out := slices.Clone(c.expKeys)
	slices.SortFunc(out, func(a, b ExpRequestKey) int {
		return cmp.Or(cmp.Compare(a.Host, b.Host), cmp.Compare(a.Source, b.Source), cmp.Compare(a.Seq, b.Seq))
	})
	return slices.Compact(out)
}

// RTTFunc supplies a host's round-trip-time normalization basis,
// typically its RTT to the transmission source.
type RTTFunc func(host topology.NodeID) time.Duration

// LatencySummary aggregates normalized recovery latencies.
type LatencySummary struct {
	// Count is the number of recoveries aggregated.
	Count int
	// MeanRTT is the mean recovery latency in units of the host RTT.
	MeanRTT float64
}

// fold returns the folds the aggregate methods read: the online
// ones in streaming mode, else the retained records folded now with rtt.
func (c *Collector) fold(rtt RTTFunc) *aggregates {
	if c.streaming {
		return &c.agg
	}
	var g aggregates
	for _, r := range c.recoveries {
		g.add(r, rtt)
	}
	return &g
}

// accumAt returns the accumulator for host in s, zero when the host
// never contributed.
func accumAt(s []latencyAccum, host topology.NodeID) latencyAccum {
	if int(host) >= len(s) {
		return latencyAccum{}
	}
	return s[host]
}

// NormalizedRecovery returns the host's average normalized recovery time
// over all its recoveries (the Figure 1 metric).
func (c *Collector) NormalizedRecovery(host topology.NodeID, rtt RTTFunc) LatencySummary {
	return accumAt(c.fold(rtt).perHost, host).summary()
}

// NormalizedRecoverySplit returns the host's average normalized recovery
// time separately for expedited and non-expedited recoveries (the
// Figure 2 metric).
func (c *Collector) NormalizedRecoverySplit(host topology.NodeID, rtt RTTFunc) (expedited, normal LatencySummary) {
	g := c.fold(rtt)
	return accumAt(g.perHostExp, host).summary(), accumAt(g.perHostStd, host).summary()
}

// FirstRoundNormalized returns the average normalized latency of
// non-expedited first-round recoveries across all hosts (the §3.4 /
// Eq. (1) metric).
func (c *Collector) FirstRoundNormalized(rtt RTTFunc) LatencySummary {
	return c.fold(rtt).firstRound.summary()
}

// OverallNormalized returns the average normalized latency over every
// recovery on every host.
func (c *Collector) OverallNormalized(rtt RTTFunc) LatencySummary {
	return c.fold(rtt).overall.summary()
}

// NormalizedPercentile returns the q-quantile (q in [0,1]) of the
// normalized recovery latencies across all hosts, or 0 with no
// recoveries. Stall behavior under faults shows up in the upper
// quantiles long before it moves the mean.
func (c *Collector) NormalizedPercentile(rtt RTTFunc, q float64) float64 {
	var norm []float64
	for _, r := range c.recoveries {
		basis := rtt(r.Host)
		if basis > 0 {
			norm = append(norm, float64(r.Latency())/float64(basis))
		}
	}
	if len(norm) == 0 {
		return 0
	}
	sort.Float64s(norm)
	i := int(q * float64(len(norm)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(norm) {
		i = len(norm) - 1
	}
	return norm[i]
}
