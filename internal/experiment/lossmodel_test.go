package experiment

import (
	"slices"
	"testing"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/lossinfer"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// wrapDrop arms the networkBuilt seam for the rest of the test: every
// run withdraws its loss verdict, so every crossing asks the per-link
// hook, and the hook asks extra first — true drops the packet — and then
// the run's own loss model.
func wrapDrop(t *testing.T, extra netsim.DropFunc) {
	t.Helper()
	networkBuilt = func(n *netsim.Network, lm *lossModel) {
		n.SetLossFunc(nil)
		n.SetDropFunc(func(p *netsim.Packet, link topology.LinkID, down bool) bool {
			return extra(p, link, down) || lm.drop(p, link, down)
		})
	}
	t.Cleanup(func() { networkBuilt = nil })
}

// stubHost is the lifecycle and membership surface a chaos controller
// drives, with no protocol behind it.
type stubHost struct{ crashed, absent bool }

func (h *stubHost) Crash()        { h.crashed = true }
func (h *stubHost) Restart()      { h.crashed = false }
func (h *stubHost) Crashed() bool { return h.crashed }
func (h *stubHost) Leave()        { h.absent = true }
func (h *stubHost) Join()         { h.absent = false }
func (h *stubHost) Absent() bool  { return h.absent }

// verdictChaosSpec opens one window of every fault kind that changes
// network or host state mid-run — a queue cap, a leave and rejoin, a
// crash and restart, a downed link — overlapping each other, and with
// starve two session-starvation windows: every host's, then the
// source's alone.
func verdictChaosSpec(tree *topology.Tree, starve bool) *chaos.Spec {
	rs := tree.Receivers()
	a, b := rs[0], rs[len(rs)-1]
	s := func(n int) time.Duration { return time.Duration(n) * time.Second }
	spec := &chaos.Spec{Name: "verdict", Faults: []chaos.Fault{
		{Kind: chaos.QueueCap, At: s(10), Until: s(20), Cap: 2},
		{Kind: chaos.Leave, At: s(12), Host: a},
		{Kind: chaos.Join, At: s(18), Host: a},
		{Kind: chaos.Crash, At: s(14), Host: b},
		{Kind: chaos.Restart, At: s(22), Host: b},
		{Kind: chaos.LinkDown, At: s(16), Until: s(24), Link: a},
	}}
	if starve {
		spec.Faults = append(spec.Faults,
			chaos.Fault{Kind: chaos.Starve, At: s(15), Until: s(25), Host: topology.None},
			chaos.Fault{Kind: chaos.Starve, At: s(30), Until: s(35), Host: tree.Root()})
	}
	return spec
}

// TestLossModelVerdictAgreesWithDrop holds the loss model's two faces to
// netsim.LossFunc's contract on every catalog trace: whenever verdict
// says known, drop answers true exactly on the downstream crossing of
// the links verdict listed — for session, data (every sequence number),
// request and reply packets, every link, both directions — and draws
// nothing from the lossy-recovery stream.
//
// The verdict is unknown only where drop is an RNG draw or a chaos
// callback: for recovery traffic under LossyRecovery, and for session
// packets under a chaos spec with a starve fault. Any other chaos spec
// leaves every verdict known. A queuing flood crosses
// its links at later instants than it asked at, so under a chaos spec
// each known answer is checked at instants before, inside and after every
// fault window of a driven controller, and must never change.
func TestLossModelVerdictAgreesWithDrop(t *testing.T) {
	type kind int
	const (
		session kind = iota
		data
		recovery
	)
	configs := []struct {
		name  string
		cfg   RunConfig
		known [3]bool // by kind
		// chaos builds the run's chaos spec for a tree: starve or not.
		chaos, starve bool
	}{
		{name: "default", known: [3]bool{true, true, true}},
		{name: "lossy-recovery", cfg: RunConfig{LossyRecovery: true}, known: [3]bool{true, true, false}},
		{name: "chaos", chaos: true, known: [3]bool{true, true, true}},
		{name: "chaos-starve", chaos: true, starve: true, known: [3]bool{false, true, true}},
	}
	starved := 0
	for _, entry := range trace.Catalog {
		tr, err := entry.Load(0.01)
		if err != nil {
			t.Fatal(err)
		}
		rates := lossinfer.EstimateYajnik(tr)
		inferred, err := lossinfer.Infer(tr, rates)
		if err != nil {
			t.Fatal(err)
		}
		source := tr.Tree.Root()
		type probe struct {
			kind kind
			pkt  *netsim.Packet
			lost []topology.LinkID
		}
		probes := []probe{{kind: session, pkt: &netsim.Packet{From: source, Class: netsim.Control, Session: true, Msg: &srm.SessionMsg{From: source}}}}
		lossy := 0
		for seq := 0; seq < tr.NumPackets(); seq++ {
			lost := inferred.Drops[seq]
			if len(lost) > 0 {
				lossy++
			}
			probes = append(probes,
				probe{data, &netsim.Packet{From: source, Class: netsim.Payload, Msg: &srm.DataMsg{Source: source, Seq: seq}}, lost},
				// Recovery traffic for a lost packet is not itself lossy.
				probe{recovery, &netsim.Packet{Class: netsim.Control, Msg: &srm.RequestMsg{Source: source, Seq: seq}}, nil},
				probe{recovery, &netsim.Packet{Class: netsim.Payload, Msg: &srm.ReplyMsg{Source: source, Seq: seq}}, nil})
		}
		if lossy == 0 {
			t.Fatalf("%s: inference attributed no loss; the data probes test nothing", entry.Name)
		}
		for _, c := range configs {
			rng, twin := sim.NewRNG(99), sim.NewRNG(99)
			cfg := c.cfg
			// Without a chaos spec only instant zero is checked: nothing else
			// moves.
			var eng *sim.Engine
			instants := []sim.Time{0}
			if c.chaos {
				cfg.Chaos = verdictChaosSpec(tr.Tree, c.starve)
				for _, f := range cfg.Chaos.Faults {
					for _, edge := range []time.Duration{f.At, f.Until} {
						if edge != 0 {
							instants = append(instants, sim.Time(edge-time.Millisecond), sim.Time(edge))
						}
					}
				}
				slices.Sort(instants)
				instants = slices.Compact(instants)
			}
			m := newLossModel(&cfg, inferred.Drops, rates, rng)
			var net *netsim.Network
			if c.chaos {
				eng = sim.NewEngine()
				net = netsim.MustNew(eng, tr.Tree, netsim.DefaultConfig())
				hosts := make([]chaos.Host, tr.Tree.NumNodes())
				for _, r := range tr.Tree.Receivers() {
					hosts[r] = &stubHost{}
				}
				host := func(id topology.NodeID) chaos.Host { return hosts[id] }
				if m.chaos, err = chaos.Install(eng, net, sim.NewRNG(7), cfg.Chaos, host, nil); err != nil {
					t.Fatalf("%s/%s: %v", entry.Name, c.name, err)
				}
			}
			capped, severed := false, false
			for _, at := range instants {
				if eng != nil {
					eng.RunUntil(at)
					capped = capped || net.QueueCap() > 0
					severed = severed || !net.LinkUp(tr.Tree.Receivers()[0])
				}
				for _, pr := range probes {
					lost, known := m.verdict(pr.pkt)
					if known != c.known[pr.kind] {
						t.Fatalf("%s/%s at %v: verdict for %T known = %v, want %v", entry.Name, c.name, at, pr.pkt.Msg, known, c.known[pr.kind])
					}
					if !known {
						if pr.kind == session && m.drop(pr.pkt, tr.Tree.Receivers()[0], true) {
							starved++
						}
						continue
					}
					if !slices.Equal(lost, pr.lost) {
						t.Fatalf("%s/%s at %v: verdict for %T %+v lost = %v, want %v", entry.Name, c.name, at, pr.pkt.Msg, pr.pkt.Msg, lost, pr.lost)
					}
					for l := 0; l < tr.Tree.NumNodes(); l++ {
						link := topology.LinkID(l)
						if link == source {
							continue
						}
						for _, down := range []bool{true, false} {
							if got, want := m.drop(pr.pkt, link, down), down && slices.Contains(lost, link); got != want {
								t.Fatalf("%s/%s at %v: drop(%T %+v, link %d, down=%v) = %v, verdict %v says %v",
									entry.Name, c.name, at, pr.pkt.Msg, pr.pkt.Msg, link, down, got, lost, want)
							}
						}
					}
				}
			}
			if c.chaos && (!capped || !severed || eng.Pending() != 0) {
				t.Fatalf("%s/%s: the controller was not driven through its windows (capped %v, severed %v, %d faults pending)",
					entry.Name, c.name, capped, severed, eng.Pending())
			}
			if rng.Int63() != twin.Int63() {
				t.Fatalf("%s/%s: a known verdict's drop calls drew from the lossy-recovery stream", entry.Name, c.name)
			}
		}
	}
	if starved == 0 {
		t.Fatal("no starve window ever dropped a session packet: the unknown session verdict is untested")
	}
}
