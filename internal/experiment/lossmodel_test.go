package experiment

import (
	"slices"
	"testing"

	"cesrm/internal/chaos"
	"cesrm/internal/lossinfer"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// TestLossModelVerdictAgreesWithDrop holds the loss model's two faces to
// netsim.LossFunc's contract on every catalog trace: whenever verdict
// says known, drop answers true exactly on the downstream crossing of
// the links verdict listed — for session, data (every sequence number),
// request and reply packets, every link, both directions — and draws
// nothing from the lossy-recovery stream. The verdict must be unknown
// under a chaos spec, under an ExtraDrop, and for recovery traffic under
// LossyRecovery, where drop is a per-crossing callback or an RNG draw.
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
	}{
		{"default", RunConfig{}, [3]bool{true, true, true}},
		{"lossy-recovery", RunConfig{LossyRecovery: true}, [3]bool{true, true, false}},
		{"chaos", RunConfig{Chaos: &chaos.Spec{Name: "armed"}}, [3]bool{}},
		{"extra-drop", RunConfig{ExtraDrop: func(*netsim.Packet, topology.LinkID, bool) bool { return false }}, [3]bool{}},
	}
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
		probes := []probe{{kind: session, pkt: &netsim.Packet{Class: netsim.Control, Session: true, Msg: &srm.SessionMsg{From: source}}}}
		lossy := 0
		for seq := 0; seq < tr.NumPackets(); seq++ {
			lost := inferred.Drops[seq]
			if len(lost) > 0 {
				lossy++
			}
			probes = append(probes,
				probe{data, &netsim.Packet{Class: netsim.Payload, Msg: &srm.DataMsg{Source: source, Seq: seq}}, lost},
				// Recovery traffic for a lost packet is not itself lossy.
				probe{recovery, &netsim.Packet{Class: netsim.Control, Msg: &srm.RequestMsg{Source: source, Seq: seq}}, nil},
				probe{recovery, &netsim.Packet{Class: netsim.Payload, Msg: &srm.ReplyMsg{Source: source, Seq: seq}}, nil})
		}
		if lossy == 0 {
			t.Fatalf("%s: inference attributed no loss; the data probes test nothing", entry.Name)
		}
		for _, c := range configs {
			rng, twin := sim.NewRNG(99), sim.NewRNG(99)
			m := newLossModel(&c.cfg, inferred.Drops, rates, rng)
			for _, pr := range probes {
				lost, known := m.verdict(pr.pkt)
				if known != c.known[pr.kind] {
					t.Fatalf("%s/%s: verdict for %T known = %v, want %v", entry.Name, c.name, pr.pkt.Msg, known, c.known[pr.kind])
				}
				if !known {
					continue
				}
				if !slices.Equal(lost, pr.lost) {
					t.Fatalf("%s/%s: verdict for %T %+v lost = %v, want %v", entry.Name, c.name, pr.pkt.Msg, pr.pkt.Msg, lost, pr.lost)
				}
				for l := 0; l < tr.Tree.NumNodes(); l++ {
					link := topology.LinkID(l)
					if link == source {
						continue
					}
					for _, down := range []bool{true, false} {
						if got, want := m.drop(pr.pkt, link, down), down && slices.Contains(lost, link); got != want {
							t.Fatalf("%s/%s: drop(%T %+v, link %d, down=%v) = %v, verdict %v says %v",
								entry.Name, c.name, pr.pkt.Msg, pr.pkt.Msg, link, down, got, lost, want)
						}
					}
				}
			}
			if rng.Int63() != twin.Int63() {
				t.Fatalf("%s/%s: a known verdict's drop calls drew from the lossy-recovery stream", entry.Name, c.name)
			}
		}
	}
}
