package wire

import (
	"testing"
	"time"

	"cesrm/internal/sim"
)

// TestDriverArrivalAllocationFree: folding a datagram into the event
// stream reuses the driver's one arrival handler and the engine's pooled
// event record — no closure, no allocation per datagram — and still
// hands each datagram to deliver at its clamped instant, in order.
func TestDriverArrivalAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	var (
		delivered int
		last      []byte
		lastAt    sim.Time
	)
	d := NewDriver(eng, func(now sim.Time, data []byte) {
		delivered++
		last, lastAt = data, now
	})
	d.epoch = time.Now()
	datagrams := [][]byte{{1}, {2}, {3}}
	next := 0
	stamp := d.epoch
	allocs := testing.AllocsPerRun(1000, func() {
		stamp = stamp.Add(time.Millisecond)
		d.handle(inbound{stamp: stamp, data: datagrams[next%len(datagrams)]})
		if delivered != next+1 || &last[0] != &datagrams[next%len(datagrams)][0] || lastAt != d.simTime(stamp) {
			t.Fatalf("datagram %d: delivered=%d at %v, want it delivered at %v", next, delivered, lastAt, d.simTime(stamp))
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("Driver.handle allocates %.1f objects per datagram, want 0", allocs)
	}

	// A stamp behind the engine clock is clamped to it, not delivered in
	// the past; a stopped engine takes no more arrivals.
	d.handle(inbound{stamp: d.epoch, data: datagrams[0]})
	if lastAt != eng.Now() || delivered != next+1 {
		t.Errorf("late datagram delivered at %v (engine at %v), %d deliveries, want %d", lastAt, eng.Now(), delivered, next+1)
	}
	eng.Stop()
	d.handle(inbound{stamp: stamp.Add(time.Second), data: datagrams[0]})
	if delivered != next+1 {
		t.Error("a stopped engine took an arrival")
	}
}
