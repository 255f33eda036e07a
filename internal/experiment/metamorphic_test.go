package experiment

import (
	"testing"

	"cesrm/internal/core"
)

// neverExpedite is a CESRM expedition policy whose cache never offers a
// pair, so no loss is ever expedited.
type neverExpedite struct{}

func (neverExpedite) Select(*core.Cache) (core.Tuple, bool) { return core.Tuple{}, false }
func (neverExpedite) Name() string                          { return "never" }

// TestExpeditionOffIsSRM is a metamorphic relation: CESRM whose policy
// never nominates a requestor/replier pair must be SRM, event for event.
// The paper runs SRM unchanged underneath CESRM as its fallback; this
// proves the srm.Extension hooks (packet received, loss detected, reply
// observed, expedited request) inert when expedition is off. It compares
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
