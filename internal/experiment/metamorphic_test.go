package experiment

import (
	"fmt"
	"slices"
	"testing"

	"cesrm/internal/core"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// neverExpedite is a CESRM expedition policy whose cache never offers a
// pair, so no loss is ever expedited.
type neverExpedite struct{}

func (neverExpedite) Select(*core.Cache) (core.Tuple, bool) { return core.Tuple{}, false }
func (neverExpedite) Name() string                          { return "never" }

// TestExpeditionOffIsSRM is a metamorphic relation: CESRM whose policy
// never nominates a requestor/replier pair must be SRM, event for event.
// The paper runs SRM unchanged underneath CESRM as its fallback; this
// proves the srm.Extension hooks (loss detected, reply observed,
// expedited request) and the loss record's unarmed REORDER-DELAY timer
// inert when expedition is off. It compares
// the whole run fingerprint on every catalog trace and under every chaos
// scenario on three of them.
func TestExpeditionOffIsSRM(t *testing.T) {
	for _, r := range pinnedRuns(t, 0.01) {
		srmCfg, off := r.cfg, r.cfg
		srmCfg.Protocol = SRM
		off.Protocol = CESRM
		off.CESRM = core.Config{Policy: neverExpedite{}}
		want, err := Run(srmCfg)
		if err != nil {
			t.Fatalf("trace %s scenario %s SRM: %v", r.entry.Name, r.scenario, err)
		}
		got, err := Run(off)
		if err != nil {
			t.Fatalf("trace %s scenario %s CESRM: %v", r.entry.Name, r.scenario, err)
		}
		if got.Fingerprint != want.Fingerprint {
			t.Errorf("trace %s scenario %s: CESRM without expedition %s, SRM %s",
				r.entry.Name, r.scenario, got.Fingerprint, want.Fingerprint)
		}
	}
}

// TestTrueDropsAreInferredDrops is a metamorphic relation: the §4.2
// attribution picks, for each lossy packet, one link combination that
// explains which receivers lost it, and the generator's ground truth is
// another. Both lose the packet at exactly the same receivers, so with
// lossless recovery every protocol event must be identical, and so must
// the finish time and every crossing count but original data's: only
// which links the data stops at may move. Every lossy packet takes the
// flood's scan rather than a cached plan, so this also holds the scan to
// delivering by receiver, not by link: two obstruction patterns that lose
// a packet at the same receivers must schedule identical deliveries.
func TestTrueDropsAreInferredDrops(t *testing.T) {
	for _, scale := range []float64{0.01, 0.1} {
		if scale == 0.1 && testing.Short() {
			continue
		}
		changed, moved := 0, uint64(0)
		for _, e := range trace.Catalog {
			tr, err := e.Load(scale)
			if err != nil {
				t.Fatal(err)
			}
			inferred, err := infer(tr)
			if err != nil {
				t.Fatal(err)
			}
			truth := *inferred
			truth.Drops = make([][]topology.LinkID, tr.NumPackets())
			for i := range truth.Drops {
				truth.Drops[i] = tr.TrueDropsAt(i)
				if !slices.Equal(truth.Drops[i], inferred.Drops[i]) {
					changed++
				}
			}
			for _, proto := range []Protocol{SRM, CESRM} {
				cfg := RunConfig{Trace: tr, Protocol: proto, Seed: 1 + int64(e.Index), KeepEvents: true}
				where := fmt.Sprintf("scale %g trace %s %v", scale, e.Name, proto)
				want, err := run(cfg, inferred)
				if err != nil {
					t.Fatalf("%s inferred: %v", where, err)
				}
				got, err := run(cfg, &truth)
				if err != nil {
					t.Fatalf("%s ground truth: %v", where, err)
				}
				if !slices.Equal(got.Events, want.Events) {
					t.Errorf("%s: %d protocol events under ground-truth drops, %d under inferred ones, or they differ",
						where, len(got.Events), len(want.Events))
				}
				if got.FinishedAt != want.FinishedAt {
					t.Errorf("%s: finished at %v under ground-truth drops, %v under inferred ones", where, got.FinishedAt, want.FinishedAt)
				}
				gc, wc := got.Crossings, want.Crossings
				moved = max(moved, max(gc.Data, wc.Data)-min(gc.Data, wc.Data))
				gc.Data, wc.Data = 0, 0
				if gc != wc {
					t.Errorf("%s: crossings %+v under ground-truth drops, %+v under inferred ones", where, gc, wc)
				}
			}
		}
		t.Logf("scale %g: %d packets attributed differently from the ground truth; data crossings moved by up to %d", scale, changed, moved)
		if changed == 0 {
			t.Fatalf("scale %g: every attribution equals the ground truth, so the relation tests nothing", scale)
		}
	}
}
