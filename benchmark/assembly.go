package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"time"

	"cesrm/internal/core"
	"cesrm/internal/experiment"
	"cesrm/internal/lossinfer"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// The traced assembly. experiment.Run is closed: it builds the engine,
// the network and the agents itself and hands out no seam to wrap. The
// traced pass therefore rebuilds Run's chaos-free serial happy path from
// the layers' public constructors, in the same RNG-split and scheduling
// order, and hands every agent traced handles. It omits what the three
// traced workloads never use: chaos, crashes, jitter, lossy recovery and
// sharding. The result must be the same computation: runWorkloadTraced fails the pass
// unless the crossing counts, message counts, loss counts and finish
// time equal the untraced experiment.Run of the same configuration.

// assemblyResult carries what the traced run is compared on, plus the
// engine-side timing the spans are subtracted from.
type assemblyResult struct {
	Crossings  netsim.CrossingCounts
	Counts     stats.HostCounts
	Losses     int
	FinishedAt sim.Time
	// Executed is the number of engine events dispatched; sharded and
	// serial dispatch execute the same events, so it is the denominator
	// of the barrier-event share.
	Executed uint64
	// Wall is the whole assembled run; EngineWall the part from the
	// first scheduling call to the end of eng.Run.
	Wall, EngineWall time.Duration
}

// eventDigest folds protocol events into SHA-256 the way the run
// fingerprint does (eleven fixed-width little-endian words per event).
// experiment's own hasher is unexported, so this stand-in exists to
// charge the stats layer the same per-event cost, not to reproduce
// fingerprints.
type eventDigest struct {
	h   hash.Hash
	buf [8]byte
}

func (d *eventDigest) word(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *eventDigest) event(ev stats.Event) {
	d.word(int64(ev.Kind))
	d.word(int64(ev.At))
	d.word(int64(ev.Host))
	d.word(int64(ev.Source))
	d.word(int64(ev.Seq))
	d.word(int64(ev.Round))
	if ev.Expedited {
		d.word(1)
	} else {
		d.word(0)
	}
	d.word(int64(ev.OwnRequests))
	d.word(int64(ev.Reschedules))
	d.word(int64(ev.Requestor))
	d.word(int64(ev.Replier))
}

// protocolAgent is the lifecycle and completion surface both agent
// types share.
type protocolAgent interface {
	StartSessions()
	Stop()
	Transmit(seq int)
}

// runAssembled reenacts tr under proto (SRM or CESRM) with the default
// network and protocol parameters, every agent holding handles traced by
// t under the names n.
func runAssembled(t *tracer, n *layerNames, tr *trace.Trace, proto experiment.Protocol, seed int64) (*assemblyResult, error) {
	started := time.Now()
	netCfg := netsim.DefaultConfig()
	params := srm.DefaultParams()
	warmup := 3 * params.SessionPeriod
	const maxTail = 10 * time.Minute
	tree := tr.Tree
	source := tree.Root()

	rates := lossinfer.EstimateYajnik(tr)
	inferred, err := lossinfer.Infer(tr, rates)
	if err != nil {
		return nil, err
	}

	eng := sim.NewEngine()
	net, err := netsim.New(eng, tree, netCfg)
	if err != nil {
		return nil, err
	}
	net.EnableFloodPlans(0)
	rootRNG := sim.NewRNG(seed)
	// Run splits the lossy-recovery drop stream first; the split must
	// happen here too or every host would draw a different stream.
	_ = rootRNG.Split()
	net.SetDropFunc(func(p *netsim.Packet, link topology.LinkID, down bool) bool {
		if p.Session {
			return false
		}
		m, ok := p.Msg.(*srm.DataMsg)
		if !ok || !down {
			return false
		}
		for _, l := range inferred.Drops[m.Seq] {
			if l == link {
				return true
			}
		}
		return false
	})

	rtt := func(h topology.NodeID) time.Duration { return net.RTT(h, source) }
	collector := stats.New()
	collector.Reserve(tree.NumNodes())
	collector.StreamAggregates(rtt)
	validator := stats.NewValidator()
	validator.Reserve(tree.NumNodes())
	validator.SetClock(eng.Now)
	recorder := stats.NewRecorder(eng.Now)
	digest := &eventDigest{h: sha256.New()}
	recorder.SetSink(digest.event)
	recorder.SetKeep(false)
	observer := &tracedObserver{t, n, stats.Tee{collector, validator, recorder}}
	sched := &tracedSched{t, n, eng}
	endpoint := &tracedEndpoint{t, n, net}

	hosts := append([]topology.NodeID{source}, tree.Receivers()...)
	agents := make(map[topology.NodeID]protocolAgent, len(hosts))
	inspect := make(map[topology.NodeID]*srm.Agent, len(hosts))
	for _, id := range hosts {
		hostRNG := rootRNG.Split()
		switch proto {
		case experiment.SRM:
			a, err := srm.NewAgent(sched, endpoint, hostRNG, id, params, observer, nil)
			if err != nil {
				return nil, err
			}
			agents[id], inspect[id] = a, a
		case experiment.CESRM:
			a, err := core.NewAgent(sched, endpoint, hostRNG, id, core.Config{SRM: params}, observer)
			if err != nil {
				return nil, err
			}
			agents[id], inspect[id] = a, a.SRM()
		default:
			return nil, fmt.Errorf("traced assembly: protocol %v not supported", proto)
		}
	}

	engineStarted := time.Now()
	for _, id := range hosts {
		agents[id].StartSessions()
	}
	numPackets := tr.NumPackets()
	srcAgent := agents[source]
	for i := 0; i < numPackets; i++ {
		seq := i
		eng.ScheduleAt(sim.Time(warmup+time.Duration(i)*tr.Period), func(sim.Time) {
			tok := t.begin(n.transmit, false)
			srcAgent.Transmit(seq)
			t.end(tok)
		})
	}
	deadline := sim.Time(warmup + time.Duration(numPackets-1)*tr.Period).Add(maxTail)
	complete := func() bool {
		for _, r := range tree.Receivers() {
			if a := inspect[r]; a.ClassifiedThrough(source) < numPackets || a.Outstanding() > 0 {
				return false
			}
		}
		return true
	}
	timedOut := false
	var monitor func(now sim.Time)
	stopAll := func() {
		for _, id := range hosts {
			agents[id].Stop()
		}
	}
	// The watermark release of fully-recovered per-packet state, two
	// monitor ticks behind the watermark, exactly as Run does it with
	// ReleaseRecovered: it performs no engine operation, but without it
	// the traced run would carry a heap the timed runs never have.
	var relReady, relNext, released int
	monitor = func(now sim.Time) {
		tok := t.begin(n.monitor, true)
		defer t.end(tok)
		if relReady > released {
			for _, id := range hosts {
				inspect[id].ReleaseThrough(source, relReady)
			}
			collector.ReleasePacketsThrough(source, relReady)
			validator.ReleaseThrough(source, relReady)
			released = relReady
		}
		watermark := numPackets
		for _, id := range hosts {
			if r := inspect[id].ReleasableThrough(source); r < watermark {
				watermark = r
			}
		}
		relReady, relNext = relNext, watermark
		if complete() {
			stopAll()
			return
		}
		if now.After(deadline) {
			timedOut = true
			stopAll()
			eng.Stop()
			return
		}
		eng.Schedule(params.SessionPeriod, monitor)
	}
	eng.Schedule(params.SessionPeriod, monitor)
	finished := eng.Run()
	engineWall := time.Since(engineStarted)

	if timedOut {
		return nil, fmt.Errorf("traced assembly: %s/%s did not quiesce", tr.Name, proto)
	}
	losses := 0
	for _, r := range tree.Receivers() {
		if out := inspect[r].Outstanding(); out != 0 {
			return nil, fmt.Errorf("traced assembly: receiver %d finished with %d unrecovered losses", r, out)
		}
		losses += collector.Losses(r)
	}
	if err := validator.Err(); err != nil {
		return nil, fmt.Errorf("traced assembly: %s/%s: %w", tr.Name, proto, err)
	}
	wall := time.Since(started)
	if err := t.fold(); err != nil {
		return nil, err
	}
	return &assemblyResult{
		Crossings:  net.Counts(),
		Counts:     collector.TotalCounts(),
		Losses:     losses,
		FinishedAt: finished,
		Executed:   eng.Executed(),
		Wall:       wall,
		EngineWall: engineWall,
	}, nil
}
