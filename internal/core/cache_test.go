package core

import (
	"testing"
	"testing/quick"
	"time"

	"cesrm/internal/topology"
)

func tup(seq int, q, r topology.NodeID, dqs, drq time.Duration) Tuple {
	return Tuple{Seq: seq, Requestor: q, ReqDistToSource: dqs, Replier: r, ReplierDistToRequestor: drq, TurningPoint: topology.None}
}

func TestRecoveryDelay(t *testing.T) {
	tp := tup(1, 2, 3, 40*time.Millisecond, 30*time.Millisecond)
	if got := tp.RecoveryDelay(); got != 100*time.Millisecond {
		t.Fatalf("RecoveryDelay = %v, want 100ms (d̂qs + 2*d̂rq)", got)
	}
}

func TestNewCacheRejectsBadCapacity(t *testing.T) {
	if _, err := NewCache(0); err == nil {
		t.Fatal("accepted zero capacity")
	}
	if _, err := NewCache(-3); err == nil {
		t.Fatal("accepted negative capacity")
	}
}

func TestCacheInsertAndGet(t *testing.T) {
	c, err := NewCache(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity() != 4 || c.Len() != 0 {
		t.Fatal("fresh cache wrong shape")
	}
	tp := tup(5, 1, 2, time.Millisecond, time.Millisecond)
	if !c.Update(tp) {
		t.Fatal("insert reported no change")
	}
	got, ok := c.Get(5)
	if !ok || got != tp {
		t.Fatalf("Get(5) = %+v, %v", got, ok)
	}
	if _, ok := c.Get(6); ok {
		t.Fatal("Get on missing seq succeeded")
	}
}

func TestCacheKeepsOptimalTuplePerPacket(t *testing.T) {
	c, _ := NewCache(4)
	slow := tup(7, 1, 2, 100*time.Millisecond, 100*time.Millisecond) // delay 300ms
	fast := tup(7, 3, 4, 50*time.Millisecond, 50*time.Millisecond)   // delay 150ms
	c.Update(slow)
	if !c.Update(fast) {
		t.Fatal("better tuple rejected")
	}
	if got, _ := c.Get(7); got != fast {
		t.Fatalf("cached %+v, want the faster pair", got)
	}
	// A worse tuple must not displace the optimal one.
	if c.Update(slow) {
		t.Fatal("worse tuple accepted")
	}
	if got, _ := c.Get(7); got != fast {
		t.Fatal("optimal tuple displaced")
	}
}

func TestCacheEvictsLeastRecentPacket(t *testing.T) {
	c, _ := NewCache(2)
	c.Update(tup(1, 1, 2, time.Millisecond, time.Millisecond))
	c.Update(tup(5, 1, 2, time.Millisecond, time.Millisecond))
	c.Update(tup(9, 1, 2, time.Millisecond, time.Millisecond))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("least recent packet not evicted")
	}
	if _, ok := c.Get(9); !ok {
		t.Fatal("new packet not inserted")
	}
}

func TestCacheDiscardsStaleWhenFull(t *testing.T) {
	c, _ := NewCache(2)
	c.Update(tup(5, 1, 2, time.Millisecond, time.Millisecond))
	c.Update(tup(9, 1, 2, time.Millisecond, time.Millisecond))
	// Packet 3 is less recent than everything cached: discard.
	if c.Update(tup(3, 1, 2, time.Millisecond, time.Millisecond)) {
		t.Fatal("stale tuple accepted into full cache")
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("stale tuple cached")
	}
}

func TestMostRecent(t *testing.T) {
	c, _ := NewCache(4)
	if _, ok := c.MostRecent(); ok {
		t.Fatal("empty cache returned a tuple")
	}
	c.Update(tup(2, 1, 2, time.Millisecond, time.Millisecond))
	c.Update(tup(8, 3, 4, time.Millisecond, time.Millisecond))
	c.Update(tup(5, 5, 6, time.Millisecond, time.Millisecond))
	got, ok := c.MostRecent()
	if !ok || got.Seq != 8 {
		t.Fatalf("MostRecent = %+v, want seq 8", got)
	}
}

func TestMostFrequentPair(t *testing.T) {
	c, _ := NewCache(8)
	if _, ok := c.MostFrequentPair(); ok {
		t.Fatal("empty cache returned a tuple")
	}
	c.Update(tup(1, 1, 2, time.Millisecond, time.Millisecond))
	c.Update(tup(2, 3, 4, time.Millisecond, time.Millisecond))
	c.Update(tup(3, 1, 2, time.Millisecond, time.Millisecond))
	c.Update(tup(4, 1, 2, time.Millisecond, time.Millisecond))
	got, ok := c.MostFrequentPair()
	if !ok || got.Pair() != (Pair{1, 2}) {
		t.Fatalf("MostFrequentPair = %+v, want pair (1,2)", got)
	}
	// Ties break toward the most recent packet.
	c2, _ := NewCache(8)
	c2.Update(tup(1, 1, 2, time.Millisecond, time.Millisecond))
	c2.Update(tup(9, 3, 4, time.Millisecond, time.Millisecond))
	got, _ = c2.MostFrequentPair()
	if got.Seq != 9 {
		t.Fatalf("tie-break chose seq %d, want 9", got.Seq)
	}
}

func TestCacheUpdateTieKeepsExistingTuple(t *testing.T) {
	// Equal recovery delay must not displace the stored tuple: Update
	// replaces only on a strictly smaller delay, so re-observations of
	// an equally good pair leave the cache (and its Pair statistics)
	// untouched.
	c, _ := NewCache(4)
	first := tup(7, 1, 2, 40*time.Millisecond, 30*time.Millisecond)  // delay 100ms
	second := tup(7, 3, 4, 60*time.Millisecond, 20*time.Millisecond) // delay 100ms too
	c.Update(first)
	if c.Update(second) {
		t.Fatal("equal-delay tuple reported as a change")
	}
	if got, _ := c.Get(7); got != first {
		t.Fatalf("cached %+v after tie, want the original %+v", got, first)
	}
}

func TestCacheInsertBetweenOldestAndNewestWhenFull(t *testing.T) {
	// A packet less recent than the newest but more recent than the
	// oldest still enters a full cache, evicting the oldest.
	c, _ := NewCache(3)
	c.Update(tup(2, 1, 2, time.Millisecond, time.Millisecond))
	c.Update(tup(6, 1, 2, time.Millisecond, time.Millisecond))
	c.Update(tup(9, 1, 2, time.Millisecond, time.Millisecond))
	if !c.Update(tup(4, 1, 2, time.Millisecond, time.Millisecond)) {
		t.Fatal("mid-recency tuple rejected from full cache")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d after eviction, want 3", c.Len())
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("oldest packet survived eviction")
	}
	for _, seq := range []int{4, 6, 9} {
		if _, ok := c.Get(seq); !ok {
			t.Fatalf("packet %d missing after insert-with-eviction", seq)
		}
	}
}

func TestCacheInsertBelowOldestWhenFullUpdatesInPlace(t *testing.T) {
	// Insert-below-oldest is discarded when full — but an update to an
	// already-cached packet with the oldest seq must still go through
	// the replace-if-better path, not the eviction path.
	c, _ := NewCache(2)
	c.Update(tup(5, 1, 2, 100*time.Millisecond, 100*time.Millisecond))
	c.Update(tup(9, 1, 2, time.Millisecond, time.Millisecond))
	better := tup(5, 3, 4, 10*time.Millisecond, 10*time.Millisecond)
	if !c.Update(better) {
		t.Fatal("better tuple for cached oldest packet rejected")
	}
	if got, _ := c.Get(5); got != better {
		t.Fatalf("cached %+v, want the improved tuple", got)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (in-place update must not evict)", c.Len())
	}
}

func TestMostFrequentPairTieBreaksTowardRecentPacket(t *testing.T) {
	// Two pairs tied on frequency: the winner is the pair owning the
	// most recent cached packet, regardless of insertion order.
	c, _ := NewCache(8)
	c.Update(tup(1, 1, 2, time.Millisecond, time.Millisecond)) // pair A
	c.Update(tup(3, 1, 2, time.Millisecond, time.Millisecond)) // pair A
	c.Update(tup(2, 3, 4, time.Millisecond, time.Millisecond)) // pair B
	c.Update(tup(9, 3, 4, time.Millisecond, time.Millisecond)) // pair B, newest overall
	got, ok := c.MostFrequentPair()
	if !ok || got.Pair() != (Pair{3, 4}) || got.Seq != 9 {
		t.Fatalf("tie broke to %+v, want pair (3,4) at seq 9", got)
	}
}

func TestMostFrequentPairFrequencyBeatsRecency(t *testing.T) {
	// A strictly more frequent pair wins even when the most recent
	// packet belongs to a rarer pair.
	c, _ := NewCache(8)
	c.Update(tup(1, 1, 2, time.Millisecond, time.Millisecond)) // pair A
	c.Update(tup(2, 1, 2, time.Millisecond, time.Millisecond)) // pair A
	c.Update(tup(3, 1, 2, time.Millisecond, time.Millisecond)) // pair A
	c.Update(tup(9, 3, 4, time.Millisecond, time.Millisecond)) // pair B, newest
	got, ok := c.MostFrequentPair()
	if !ok || got.Pair() != (Pair{1, 2}) {
		t.Fatalf("selected %+v, want the frequent pair (1,2)", got)
	}
	if got.Seq != 3 {
		t.Fatalf("selected seq %d within the winning pair, want its most recent (3)", got.Seq)
	}
}

func TestPolicies(t *testing.T) {
	c, _ := NewCache(8)
	c.Update(tup(1, 1, 2, time.Millisecond, time.Millisecond))
	c.Update(tup(2, 1, 2, time.Millisecond, time.Millisecond))
	c.Update(tup(9, 3, 4, time.Millisecond, time.Millisecond))

	mr := MostRecentLoss{}
	if mr.Name() != "most-recent-loss" {
		t.Fatal("wrong policy name")
	}
	got, ok := mr.Select(c)
	if !ok || got.Seq != 9 {
		t.Fatalf("most-recent selected %+v", got)
	}

	mf := MostFrequentLoss{}
	if mf.Name() != "most-frequent-loss" {
		t.Fatal("wrong policy name")
	}
	got, ok = mf.Select(c)
	if !ok || got.Pair() != (Pair{1, 2}) {
		t.Fatalf("most-frequent selected %+v", got)
	}
}

func TestTuplesSnapshot(t *testing.T) {
	c, _ := NewCache(4)
	c.Update(tup(1, 1, 2, time.Millisecond, time.Millisecond))
	c.Update(tup(2, 3, 4, time.Millisecond, time.Millisecond))
	ts := c.Tuples()
	if len(ts) != 2 {
		t.Fatalf("Tuples returned %d entries", len(ts))
	}
}

func TestPropertyCacheInvariants(t *testing.T) {
	// Property: after any update sequence, (1) Len <= Capacity, (2) the
	// cached tuple for each packet has the minimum recovery delay among
	// tuples offered for that packet that were accepted while the packet
	// stayed cached, and (3) MostRecent returns the maximum cached seq.
	f := func(ops []uint16) bool {
		c, _ := NewCache(4)
		for _, op := range ops {
			seq := int(op % 32)
			q := topology.NodeID(op % 5)
			r := topology.NodeID(op % 7)
			d := time.Duration(op%11+1) * time.Millisecond
			c.Update(tup(seq, q, r, d, d))
			if c.Len() > c.Capacity() {
				return false
			}
			if best, ok := c.MostRecent(); ok {
				for _, tu := range c.Tuples() {
					if tu.Seq > best.Seq {
						return false
					}
				}
			} else if c.Len() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheSteadyStateAllocationFree pins the per-loss path: on a full
// cache, inserting a newer packet (which evicts the oldest) and
// consulting MostRecent allocate nothing, and the tuples stay ascending.
func TestCacheSteadyStateAllocationFree(t *testing.T) {
	c, _ := NewCache(DefaultCacheCapacity)
	seq := 0
	for ; seq < c.Capacity(); seq++ {
		c.Update(tup(seq, 1, 2, time.Millisecond, time.Millisecond))
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Update(tup(seq, 1, 2, time.Millisecond, time.Millisecond))
		if mr, ok := c.MostRecent(); !ok || mr.Seq != seq {
			t.Fatalf("MostRecent = %+v, %v after inserting seq %d", mr, ok, seq)
		}
		seq++
	})
	if allocs != 0 {
		t.Errorf("Update+MostRecent on a full cache: %v allocs, want 0", allocs)
	}
	ts := c.Tuples()
	if len(ts) != c.Capacity() {
		t.Fatalf("cache holds %d tuples, want %d", len(ts), c.Capacity())
	}
	for i := 1; i < len(ts); i++ {
		if ts[i-1].Seq >= ts[i].Seq {
			t.Fatalf("Tuples not ascending by Seq: %d before %d", ts[i-1].Seq, ts[i].Seq)
		}
	}
}
