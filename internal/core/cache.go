// Package core implements the Caching-Enhanced Scalable Reliable
// Multicast (CESRM) protocol of Livadas and Keidar (DSN 2004).
//
// CESRM runs SRM's recovery scheme unchanged and, in parallel, a
// caching-based expedited recovery scheme (§3): each receiver caches
// the optimal requestor/replier pair that recovered its recent losses
// from each source; upon a new loss, the receiver consults the cache
// and — if it is itself the cached requestor — immediately unicasts an
// expedited request to the cached replier, which immediately multicasts
// the packet, bypassing SRM's suppression delays. If expedited recovery
// fails (further loss, or the replier shares the loss), SRM's scheme
// recovers the packet as usual.
package core

import (
	"fmt"
	"time"

	"cesrm/internal/topology"
)

// Tuple is one cached recovery record ⟨i, q, d̂qs, r, d̂rq⟩ (§3.1): the
// requestor/replier pair that carried out the recovery of packet i,
// with the annotated distance estimates.
type Tuple struct {
	// Seq is the recovered packet's sequence number.
	Seq int
	// Requestor is the host whose request instigated the recovery.
	Requestor topology.NodeID
	// ReqDistToSource is the requestor's annotated distance to the
	// source (d̂qs).
	ReqDistToSource time.Duration
	// Replier is the host that retransmitted the packet.
	Replier topology.NodeID
	// ReplierDistToRequestor is the replier's annotated distance to the
	// requestor (d̂rq).
	ReplierDistToRequestor time.Duration
	// TurningPoint is the annotated turning-point router for
	// router-assisted operation (§3.3); None without router assistance.
	TurningPoint topology.NodeID
}

// RecoveryDelay is the paper's optimality metric for a cached pair:
// d̂qs + 2*d̂rq, preferring requestors close to the source and repliers
// that minimize round-trip recovery latency.
func (t Tuple) RecoveryDelay() time.Duration {
	return t.ReqDistToSource + 2*t.ReplierDistToRequestor
}

// Pair identifies a requestor/replier pair irrespective of packet.
type Pair struct {
	Requestor, Replier topology.NodeID
}

// Pair returns the tuple's requestor/replier pair.
func (t Tuple) Pair() Pair { return Pair{t.Requestor, t.Replier} }

// Cache holds the optimal requestor/replier tuples of a receiver's most
// recent losses from one source (§3.1). At most one tuple is kept per
// packet — the optimal one — and at most Capacity packets are tracked,
// evicting the least recent packet first.
type Cache struct {
	capacity int
	// entries is ascending by Seq, one tuple per packet: the most recent
	// loss is last and the eviction victim first. A cache is a handful
	// of tuples consulted on every detected loss, so lookups scan.
	entries []Tuple
}

// DefaultCacheCapacity is the default number of recent losses tracked.
// The most-recent-loss policy only ever consults the newest entry, but a
// deeper cache serves the most-frequent-loss policy.
const DefaultCacheCapacity = 16

// NewCache returns a cache tracking up to capacity recent packets.
func NewCache(capacity int) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("core: cache capacity %d < 1", capacity)
	}
	return newCache(capacity), nil
}

// newCache is NewCache for a capacity already known to be positive.
func newCache(capacity int) *Cache {
	return &Cache{capacity: capacity, entries: make([]Tuple, 0, capacity)}
}

// Len returns the number of cached tuples.
func (c *Cache) Len() int { return len(c.entries) }

// Capacity returns the maximum number of cached tuples.
func (c *Cache) Capacity() int { return c.capacity }

// find returns the position of the first cached packet no older than
// seq — where a tuple for seq sits or would be inserted — and whether
// seq itself is cached there. It scans from the recent end, where the
// packets of new replies belong.
func (c *Cache) find(seq int) (i int, ok bool) {
	i = len(c.entries)
	for i > 0 && c.entries[i-1].Seq >= seq {
		i--
	}
	return i, i < len(c.entries) && c.entries[i].Seq == seq
}

// Get returns the cached tuple for packet seq.
func (c *Cache) Get(seq int) (Tuple, bool) {
	if i, ok := c.find(seq); ok {
		return c.entries[i], true
	}
	return Tuple{}, false
}

// Update processes a recovery tuple observed on a repair reply (§3.1).
// If the packet is already cached, the stored tuple is replaced only if
// the new one affords a smaller recovery delay. Otherwise the tuple is
// inserted, evicting the least recent packet when full; tuples for
// packets less recent than everything cached are discarded when full.
// It returns whether the cache changed.
func (c *Cache) Update(t Tuple) bool {
	i, ok := c.find(t.Seq)
	if ok {
		if t.RecoveryDelay() < c.entries[i].RecoveryDelay() {
			c.entries[i] = t
			return true
		}
		return false
	}
	if len(c.entries) >= c.capacity {
		if i == 0 {
			return false // less recent than everything cached
		}
		// Evict the least recent packet: everything older than t moves
		// down one place and t takes the gap.
		copy(c.entries, c.entries[1:i])
		c.entries[i-1] = t
		return true
	}
	c.entries = append(c.entries, Tuple{})
	copy(c.entries[i+1:], c.entries[i:])
	c.entries[i] = t
	return true
}

// InvalidateHost removes every cached tuple naming host n as requestor
// or replier, returning how many were removed. Expedited recovery
// degrades gracefully when cached hosts crash (§3.3) because a dead
// replier simply never answers; invalidation lets a membership-aware
// deployment skip even the wasted expedited attempt.
func (c *Cache) InvalidateHost(n topology.NodeID) int {
	kept := c.entries[:0]
	for _, t := range c.entries {
		if t.Requestor != n && t.Replier != n {
			kept = append(kept, t)
		}
	}
	removed := len(c.entries) - len(kept)
	c.entries = kept
	return removed
}

// MostRecent returns the tuple of the most recent cached packet.
func (c *Cache) MostRecent() (Tuple, bool) {
	if len(c.entries) == 0 {
		return Tuple{}, false
	}
	return c.entries[len(c.entries)-1], true
}

// MostFrequentPair returns the tuple whose requestor/replier pair
// appears most frequently in the cache; ties break toward the more
// recent packet.
func (c *Cache) MostFrequentPair() (Tuple, bool) {
	var best Tuple
	bestCount := 0
	for _, t := range c.entries {
		n := 0
		for _, u := range c.entries {
			if u.Pair() == t.Pair() {
				n++
			}
		}
		if n >= bestCount { // ascending order: a tie goes to the later packet
			best, bestCount = t, n
		}
	}
	return best, bestCount > 0
}

// Tuples returns a snapshot of all cached tuples, ascending by Seq.
func (c *Cache) Tuples() []Tuple {
	return append([]Tuple{}, c.entries...)
}

// Policy selects the expeditious requestor/replier pair for a new loss
// from the cache (§3.2). Implementations must not mutate the cache.
type Policy interface {
	// Select returns the tuple to expedite with, or false when the
	// cache offers no candidate.
	Select(c *Cache) (Tuple, bool)
	// Name identifies the policy in experiment output.
	Name() string
}

// MostRecentLoss is the paper's preferred policy (§4.3): use the
// optimal pair that recovered the most recent loss, exploiting the
// observation that a loss's location correlates most strongly with the
// most recent loss's location.
type MostRecentLoss struct{}

// Select implements Policy.
func (MostRecentLoss) Select(c *Cache) (Tuple, bool) { return c.MostRecent() }

// Name implements Policy.
func (MostRecentLoss) Name() string { return "most-recent-loss" }

// MostFrequentLoss selects the pair appearing most frequently among the
// cached recoveries (§3.2).
type MostFrequentLoss struct{}

// Select implements Policy.
func (MostFrequentLoss) Select(c *Cache) (Tuple, bool) { return c.MostFrequentPair() }

// Name implements Policy.
func (MostFrequentLoss) Name() string { return "most-frequent-loss" }

var (
	_ Policy = MostRecentLoss{}
	_ Policy = MostFrequentLoss{}
)
