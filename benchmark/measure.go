package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// median returns the middle of v (the mean of the two middle values for
// an even count), 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the average of v, 0 for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the benchmark driver uses; v needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the run-to-run spread of v as a share of its median: the
// distance between the quartiles when there are at least four values,
// the full range below that (three passes have no quartiles worth the
// name), 0 for fewer than two.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	if len(v) < 4 {
		s := sorted(v)
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

// tailPercentile returns the highest percentile of v that still has at
// least ten samples beyond it, and the value there. With fewer than
// eleven samples no percentile qualifies and it returns the median as
// the 50th.
func tailPercentile(v []float64) (pct, value float64) {
	n := len(v)
	if n < 11 {
		return 50, median(v)
	}
	s := sorted(v)
	return 100 * float64(n-10) / float64(n), s[n-11]
}

// worsening is the share of base by which cand is worse, in the metric's
// own direction; negative when cand is better.
func worsening(better string, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	if better == higher {
		return (base - cand) / math.Abs(base)
	}
	return (cand - base) / math.Abs(base)
}

// resources is the host cost of one pass.
type resources struct {
	// WallS is the pass's measured wall time, the yardstick's own time
	// excluded; Slowdown is the mean of the yardstick's readings during
	// the pass (1 on a quiet host, and when no probe was installed).
	WallS      float64
	Slowdown   float64
	PeakHeapMB float64
	MallocsM   float64
	AllocMB    float64
	GCCPUFrac  float64
	GCCycles   float64
}

const (
	metricHeapLive = "/gc/heap/live:bytes"
	metricGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU = "/cpu/classes/total:cpu-seconds"
	metricGCCycles = "/gc/cycles/total:gc-cycles"
)

// meter measures one pass: wall time, the live heap's high-water mark,
// and the allocation and GC counters' deltas. The high-water mark is of
// /gc/heap/live:bytes, the bytes the latest collection found live: the
// heap-objects gauge also counts garbage not yet swept, so its maximum is
// set by where the collector's cycles happen to fall (the same replay
// round read 11.5 to 17.0 MB by it, 6.9 to 7.4 MB live). It is fed by a
// wall-clock ticker and by Tick, which the simulated workloads install as
// RunConfig.HeapProbe, so a cycle that ends inside a run is not missed.
type meter struct {
	started time.Time
	// host, when non-nil, is the yardstick Tick runs every probeEvery;
	// the time it takes is excluded from the pass's wall time.
	host      *hostProbe
	lastHost  time.Time
	slowdowns []float64
	excluded  time.Duration
	mem0      runtime.MemStats
	rt0       [3]metrics.Sample
	peak      atomic.Uint64
	stop      chan struct{}
	done      chan struct{}
}

func readRuntime(s *[3]metrics.Sample) {
	s[0].Name, s[1].Name, s[2].Name = metricGCCPU, metricTotalCPU, metricGCCycles
	metrics.Read(s[:])
}

// startMeter collects twice (the second cycle frees what finalizers held)
// and returns the heap to the OS, so every pass starts from the same
// heap, and begins measuring.
func startMeter(host *hostProbe) *meter {
	runtime.GC()
	debug.FreeOSMemory()
	m := &meter{host: host, stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&m.mem0)
	readRuntime(&m.rt0)
	go func() {
		defer close(m.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.Probe()
			}
		}
	}()
	m.started = time.Now()
	return m
}

// Tick is the pass's own hook, called from the goroutine doing the work
// (the simulator's monitor tick, the end of a replay): it probes the heap
// and, every probeEvery, runs the host yardstick.
func (m *meter) Tick() {
	m.Probe()
	if m.host == nil {
		return
	}
	now := time.Now()
	if now.Sub(m.lastHost) < probeEvery {
		return
	}
	m.slowdowns = append(m.slowdowns, m.host.sample())
	m.lastHost = time.Now()
	m.excluded += m.lastHost.Sub(now)
}

// Probe folds the current heap occupancy into the high-water mark. It is
// safe for concurrent use.
func (m *meter) Probe() {
	s := []metrics.Sample{{Name: metricHeapLive}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for {
		old := m.peak.Load()
		if v <= old || m.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// Stop ends the pass and returns its cost.
func (m *meter) Stop() resources {
	wall := time.Since(m.started) - m.excluded
	close(m.stop)
	<-m.done
	m.Probe()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	var rt1 [3]metrics.Sample
	readRuntime(&rt1)
	r := resources{
		WallS:      wall.Seconds(),
		Slowdown:   1,
		PeakHeapMB: float64(m.peak.Load()) / 1e6,
		MallocsM:   float64(mem1.Mallocs-m.mem0.Mallocs) / 1e6,
		AllocMB:    float64(mem1.TotalAlloc-m.mem0.TotalAlloc) / 1e6,
	}
	if len(m.slowdowns) > 0 {
		r.Slowdown = mean(m.slowdowns)
	}
	if m.rt0[0].Value.Kind() == metrics.KindFloat64 && m.rt0[1].Value.Kind() == metrics.KindFloat64 {
		if total := rt1[1].Value.Float64() - m.rt0[1].Value.Float64(); total > 0 {
			r.GCCPUFrac = (rt1[0].Value.Float64() - m.rt0[0].Value.Float64()) / total
		}
	}
	if m.rt0[2].Value.Kind() == metrics.KindUint64 {
		r.GCCycles = float64(rt1[2].Value.Uint64() - m.rt0[2].Value.Uint64())
	}
	return r
}
