package experiment

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/srm"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// TestStalledWatermarkScanIsBounded holds one receiver's link down for
// 5,250 packets. Its held prefix pins the watermark for the whole
// outage while every other host's runs thousands of packets ahead, so a
// monitor that scanned each host's reply state up to that host's own
// held prefix would read hosts × backlog cells every tick — 4.6 M over
// this run. Bounded by the smallest held prefix, a stalled tick reads
// nothing and the run's total stays within the in-flight window a tick
// plus the one catch-up when the link returns.
func TestStalledWatermarkScanIsBounded(t *testing.T) {
	const period, down = 40 * time.Millisecond, 5250
	tr, err := trace.Generate(trace.GenSpec{
		Name:         "stall",
		Topology:     topology.GenSpec{Receivers: 8, Depth: 4},
		NumPackets:   7000,
		Period:       period,
		TargetLosses: 2000,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := tr.Tree.Receivers()
	spec, err := chaos.ParseSpec(fmt.Sprintf("link-down@20s-%v:link=%d", 20*time.Second+down*period, recs[3]))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Protocol{SRM, CESRM} {
		res, err := Run(RunConfig{Trace: tr, Protocol: p, Seed: 17, Chaos: spec, ReleaseRecovered: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.WatermarkCells == 0 {
			t.Fatalf("%v: the watermark scan read no cell", p)
		}
		// A moving watermark trails the stream by the two-tick lag plus
		// recovery, under 100 packets at 25 a tick; the catch-up rescans
		// the backlog once a tick until the lag has passed.
		hosts := uint64(len(recs) + 1)
		ticks := uint64(time.Duration(res.FinishedAt) / srm.DefaultParams().SessionPeriod)
		if bound := hosts * (ticks*100 + 4*down); res.WatermarkCells > bound {
			t.Fatalf("%v: watermark scans read %d cells over %d ticks on %d hosts, want at most %d",
				p, res.WatermarkCells, ticks, hosts, bound)
		}
	}
}

// TestGroupReleaseScanMatchesHostScan: at every monitor tick the
// group's row-wise release scan (srm.Group.ReleasableBelow) must find
// the watermark the per-host scans find, the minimum over present
// members of each one's own scan. It covers the 14 catalog traces at
// scale 0.01 under SRM and CESRM, and three chaos specs on a small
// tree: a late joiner, members leaving and rejoining, and a crash. The
// crash is fail-stop: a restart turns release off (RunConfig.
// ReleaseRecovered), so no tick would scan.
func TestGroupReleaseScanMatchesHostScan(t *testing.T) {
	var ticks, moved int
	var mismatch string
	watermarkCheck = func(grouped, perHost int) {
		ticks++
		if grouped > 0 {
			moved++
		}
		if grouped != perHost && mismatch == "" {
			mismatch = fmt.Sprintf("tick %d: row-wise watermark %d, per-host %d", ticks, grouped, perHost)
		}
	}
	defer func() { watermarkCheck = nil }()
	check := func(name string, cfg RunConfig) {
		t.Helper()
		ticks, moved, mismatch = 0, 0, ""
		cfg.ReleaseRecovered = true
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mismatch != "" {
			t.Fatalf("%s: %s", name, mismatch)
		}
		if moved == 0 {
			t.Fatalf("%s: %d ticks, none with a watermark above 0", name, ticks)
		}
	}
	for _, e := range trace.Catalog {
		tr, err := e.Load(0.01)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Protocol{SRM, CESRM} {
			check(fmt.Sprintf("%s/%v", tr.Name, p), RunConfig{Trace: tr, Protocol: p, Seed: 1})
		}
	}
	tr := smallTrace(t, 31)
	recs := tr.Tree.Receivers()
	a, b := recs[0], recs[len(recs)/2]
	for _, text := range []string{
		fmt.Sprintf("join@70s:host=%d", b),
		fmt.Sprintf("leave@30s:host=%d;leave@50s:host=%d;join@80s:host=%d;join@110s:host=%d", a, b, a, b),
		fmt.Sprintf("crash@60s:host=%d", b),
	} {
		spec, err := chaos.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Protocol{SRM, CESRM} {
			check(fmt.Sprintf("%s/%v", text, p), RunConfig{Trace: tr, Protocol: p, Seed: 17, Chaos: spec})
		}
	}
}

// TestFloorBelowReleaseFailsTheRun exercises validator invariant 10 on
// an input that really breaks the drain-lag argument: a duplicate storm
// whose copies trail the originals by ten seconds, five times the
// release lag. The late joiner's first evidence of the stream is a
// stale copy, so its floor lies some 80 packets below what its peers
// have already discarded. With release off the run is unremarkable;
// with it on the run must fail with the invariant's class — neither
// carry on, nor move the joiner's floor.
func TestFloorBelowReleaseFailsTheRun(t *testing.T) {
	tr := smallTrace(t, 31)
	recs := tr.Tree.Receivers()
	spec, err := chaos.ParseSpec(fmt.Sprintf("dup@1s-160s:prob=1,delay=10s;join@70s:host=%d", recs[len(recs)/2]))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Protocol{SRM, CESRM, LMS} {
		if _, err := Run(RunConfig{Trace: tr, Protocol: p, Seed: 17, Chaos: spec}); err != nil {
			t.Fatalf("%v, release off: %v", p, err)
		}
		_, err := Run(RunConfig{Trace: tr, Protocol: p, Seed: 17, Chaos: spec, ReleaseRecovered: true})
		var ie *stats.InvariantError
		if !errors.As(err, &ie) {
			t.Fatalf("%v, release on: error %v, want an invariant violation", p, err)
		}
		for _, v := range ie.Violations {
			if v.Class != "floor-below-release" {
				t.Errorf("%v, release on: violation %q (%s), want only floor-below-release", p, v.Class, v.Detail)
			}
		}
	}
}
