package experiment

import (
	"testing"
	"time"

	"cesrm/internal/core"
	"cesrm/internal/lossinfer"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// replyWitness stands in front of one agent of the private-table
// assembly and counts the reply deliveries that find the agent present,
// holding the packet inside its retained window and never having lost
// it, and that change nothing an inspector, the observer or the engine
// shows: no event, no timer, no draw, no stream, no distance miss, no
// reject. All such a delivery can have changed is the packet's reply
// abstinence, which no inspector shows.
type replyWitness struct {
	host  netsim.Host // the agent as the network reached it
	a     *srm.Agent
	eng   *sim.Engine
	rec   *stats.Recorder
	count *uint64
}

// agentView is what replyWitness compares across a delivery.
type agentView struct {
	has, everLost, open                  bool
	outstanding, classified, base, held  int
	misses, rejects, seqRejects, streams int
	pending                              int
	nextSeq                              uint64
	events                               int
}

func (w *replyWitness) view(m *srm.ReplyMsg) agentView {
	a := w.a
	base, held, open := a.HeldWindow(m.Source)
	return agentView{
		has: a.Has(m.Source, m.Seq), everLost: a.EverLost(m.Source, m.Seq), open: open,
		outstanding: a.Outstanding(), classified: a.ClassifiedThrough(m.Source), base: base, held: held,
		misses: a.MissingDistanceLookups(), rejects: a.SessionRejects(), seqRejects: a.SeqRejects(),
		streams: len(a.Sources()), pending: w.eng.Pending(), nextSeq: w.eng.NextSeq(), events: w.rec.Len(),
	}
}

// Deliver implements netsim.Host.
func (w *replyWitness) Deliver(now sim.Time, p *netsim.Packet) {
	m, ok := p.Msg.(*srm.ReplyMsg)
	if !ok {
		w.host.Deliver(now, p)
		return
	}
	before := w.view(m)
	holder := !w.a.Crashed() && !w.a.Absent() && before.open && before.has && !before.everLost && m.Seq >= before.base
	w.host.Deliver(now, p)
	if holder && w.view(m) == before {
		*w.count++
	}
}

// runPrivateTables reenacts tr as Run's chaos-free path does, but
// assembled from the layers' public constructors — the way
// benchmark/assembly.go and the wire node build agents — so no agent is
// in a group: every one keeps the private one-column distance table it
// is constructed with, and every delivery goes to its Deliver. It
// returns the run fingerprint and the reply deliveries its witnesses
// found with nothing to change but the abstinence word.
func runPrivateTables(t *testing.T, tr *trace.Trace, proto Protocol, seed int64) (string, uint64) {
	t.Helper()
	cfg := RunConfig{Trace: tr, Protocol: proto, Seed: seed, Net: netsim.DefaultConfig(), SRM: srm.DefaultParams()}
	tree := tr.Tree
	source := tree.Root()
	rates := lossinfer.EstimateYajnik(tr)
	inferred, err := lossinfer.Infer(tr, rates)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	net, err := netsim.New(eng, tree, cfg.Net)
	if err != nil {
		t.Fatal(err)
	}
	rootRNG := sim.NewRNG(seed)
	loss := newLossModel(&cfg, inferred.Drops, rates, rootRNG.Split())
	net.SetDropFunc(loss.drop)
	net.SetLossFunc(loss.verdict)

	collector := stats.New()
	validator := stats.NewValidator()
	validator.SetClock(eng.Now)
	recorder := stats.NewRecorder(eng.Now)
	fp := newFPHasher()
	recorder.SetSink(fp.event)
	recorder.SetKeep(false)
	observer := stats.Tee{collector, validator, recorder}

	hosts := append([]topology.NodeID{source}, tree.Receivers()...)
	agents := make([]endpoint, len(hosts))
	inspect := make([]*srm.Agent, len(hosts))
	var absorbed uint64
	for i, id := range hosts {
		rng := rootRNG.Split()
		var host netsim.Host
		if proto == SRM {
			a, err := srm.NewAgent(eng, net, rng, id, cfg.SRM, observer, nil)
			if err != nil {
				t.Fatal(err)
			}
			agents[i], inspect[i], host = a, a, a
		} else {
			a, err := core.NewAgent(eng, net, rng, id, core.Config{SRM: cfg.SRM}, observer)
			if err != nil {
				t.Fatal(err)
			}
			agents[i], inspect[i], host = a, a.SRM(), a
		}
		net.AttachHost(id, &replyWitness{host: host, a: inspect[i], eng: eng, rec: recorder, count: &absorbed})
	}
	for _, a := range agents {
		a.StartSessions()
	}
	n := tr.NumPackets()
	warmup := 3 * cfg.SRM.SessionPeriod
	eng.ScheduleTrain(sim.Time(warmup), tr.Period, n, func(seq int, _ sim.Time) {
		agents[0].Transmit(seq)
	})
	deadline := sim.Time(warmup + time.Duration(n)*tr.Period + 10*time.Minute)
	var monitor func(now sim.Time)
	monitor = func(now sim.Time) {
		for _, a := range inspect[1:] {
			if a.ClassifiedThrough(source) < n || a.Outstanding() > 0 {
				if now.After(deadline) {
					t.Errorf("%s/%v: the private-table assembly did not quiesce", tr.Name, proto)
					eng.Stop()
					return
				}
				eng.Schedule(cfg.SRM.SessionPeriod, monitor)
				return
			}
		}
		for _, a := range agents {
			a.Stop()
		}
	}
	eng.Schedule(cfg.SRM.SessionPeriod, monitor)
	finished := eng.Run()
	if err := validator.Err(); err != nil {
		t.Fatalf("%s/%v: %v", tr.Name, proto, err)
	}
	rtt := func(h topology.NodeID) time.Duration { return net.RTT(h, source) }
	return fp.finish(net.Counts(), finished, tree.Receivers(), collector, rtt), absorbed
}

// TestGroupTwinAssembly: Run, whose agents form one srm.Group that
// serves no-op session and duplicate reply deliveries itself and keeps
// their distance estimates in one plane, must compute exactly what an
// assembly of agents with no group and private distance tables computes,
// every delivery going to the agent's Deliver. The group must serve
// inline exactly the reply deliveries that assembly's witnesses found
// with nothing to change but the abstinence word: the inline-reply
// column of the cost ledger. Both hold with release on too, where the
// group scans and releases its reply plane row-wise while the plane
// slides under the reply cohorts it serves. It covers every catalog
// trace at scale 0.01, trace 1 at 0.1, and a generated 64-receiver tree
// whose hop cohorts are wide, under SRM and CESRM.
func TestGroupTwinAssembly(t *testing.T) {
	var traces []*trace.Trace
	for _, e := range trace.Catalog {
		tr, err := e.Load(0.01)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	tr, err := trace.Catalog[0].Load(0.1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := trace.Generate(trace.GenSpec{
		Name:         "wide64",
		Topology:     topology.GenSpec{Receivers: 64, Depth: 4},
		NumPackets:   200,
		Period:       40 * time.Millisecond,
		TargetLosses: 400,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	traces = append(traces, tr, wide)
	for _, tr := range traces {
		for _, proto := range []Protocol{SRM, CESRM} {
			want, absorbed := runPrivateTables(t, tr, proto, 5)
			for _, release := range []bool{false, true} {
				res, err := Run(RunConfig{Trace: tr, Protocol: proto, Seed: 5, ReleaseRecovered: release})
				if err != nil {
					t.Fatal(err)
				}
				if res.Fingerprint != want {
					t.Errorf("%s/%v release=%v: grouped fingerprint %s, per-host assembly %s", tr.Name, proto, release, res.Fingerprint, want)
				}
				if res.Inline == 0 {
					t.Errorf("%s/%v release=%v: the group served no session delivery itself", tr.Name, proto, release)
				}
				if res.InlineReply != absorbed || absorbed == 0 {
					t.Errorf("%s/%v release=%v: the group served %d reply deliveries itself, the per-host witnesses found %d with only the abstinence to change",
						tr.Name, proto, release, res.InlineReply, absorbed)
				}
				if release && res.WatermarkCells == 0 {
					t.Errorf("%s/%v: release on, but the release scan read no word", tr.Name, proto)
				}
			}
		}
	}
}
