package experiment

import (
	"fmt"

	"cesrm/internal/lossinfer"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// Pair holds the SRM and CESRM runs of the same trace under identical
// network conditions — the unit of comparison for every figure in §4.4.
type Pair struct {
	Trace *trace.Trace
	SRM   *RunResult
	CESRM *RunResult
	// Confidence95 and Confidence98 are the §4.2 statistics of the link
	// attribution both runs injected: the share of lossy packets whose
	// selected combination has probability above 0.95 and 0.98.
	// GroundTruthAccuracy is the share selected exactly right, or -1
	// when the trace carries no ground truth. The attribution itself —
	// a slice per packet — is not kept: a suite holds every Pair.
	Confidence95, Confidence98, GroundTruthAccuracy float64
}

// RunPair reenacts tr under both protocols with identical parameters
// and one link attribution. base is applied to both runs, its Trace and
// Protocol fields overwritten; the zero value reproduces the paper's
// setup.
func RunPair(tr *trace.Trace, base RunConfig) (*Pair, error) {
	inferred, err := infer(tr)
	if err != nil {
		return nil, err
	}
	pair := &Pair{
		Trace:               tr,
		Confidence95:        inferred.Confidence(0.95),
		Confidence98:        inferred.Confidence(0.98),
		GroundTruthAccuracy: -1,
	}
	if acc, err := lossinfer.GroundTruthAccuracy(tr, inferred); err == nil {
		pair.GroundTruthAccuracy = acc
	}
	base.Trace = tr
	base.Protocol = SRM
	if pair.SRM, err = run(base, inferred); err != nil {
		return nil, fmt.Errorf("experiment: SRM run: %w", err)
	}
	base.Protocol = CESRM
	if pair.CESRM, err = run(base, inferred); err != nil {
		return nil, fmt.Errorf("experiment: CESRM run: %w", err)
	}
	return pair, nil
}

// ReceiverLatencyRow is one bar pair of Figure 1: a receiver's average
// normalized recovery time under each protocol, in RTT units.
type ReceiverLatencyRow struct {
	Receiver topology.NodeID
	// Index is the 1-based receiver position used in the paper's plots.
	Index      int
	SRMMean    float64
	CESRMMean  float64
	Recoveries int // CESRM recovery count backing the mean
}

// Figure1 returns the per-receiver average normalized recovery times for
// both protocols.
func (p *Pair) Figure1() []ReceiverLatencyRow {
	rows := make([]ReceiverLatencyRow, 0, len(p.SRM.Receivers))
	for i, r := range p.SRM.Receivers {
		s := p.SRM.Collector.NormalizedRecovery(r, p.SRM.RTT)
		c := p.CESRM.Collector.NormalizedRecovery(r, p.CESRM.RTT)
		rows = append(rows, ReceiverLatencyRow{
			Receiver:   r,
			Index:      i + 1,
			SRMMean:    s.MeanRTT,
			CESRMMean:  c.MeanRTT,
			Recoveries: c.Count,
		})
	}
	return rows
}

// ExpeditedDeltaRow is one bar of Figure 2: the difference between a
// receiver's average normalized non-expedited and expedited recovery
// times under CESRM, in RTT units.
type ExpeditedDeltaRow struct {
	Receiver topology.NodeID
	Index    int
	// Delta = mean(non-expedited) - mean(expedited); zero when the
	// receiver had no recoveries of one kind.
	Delta          float64
	ExpeditedMean  float64
	NormalMean     float64
	ExpeditedCount int
	NormalCount    int
}

// Figure2 returns the per-receiver expedited vs non-expedited latency
// difference under CESRM.
func (p *Pair) Figure2() []ExpeditedDeltaRow {
	rows := make([]ExpeditedDeltaRow, 0, len(p.CESRM.Receivers))
	for i, r := range p.CESRM.Receivers {
		exp, norm := p.CESRM.Collector.NormalizedRecoverySplit(r, p.CESRM.RTT)
		row := ExpeditedDeltaRow{
			Receiver:       r,
			Index:          i + 1,
			ExpeditedMean:  exp.MeanRTT,
			NormalMean:     norm.MeanRTT,
			ExpeditedCount: exp.Count,
			NormalCount:    norm.Count,
		}
		if exp.Count > 0 && norm.Count > 0 {
			row.Delta = norm.MeanRTT - exp.MeanRTT
		}
		rows = append(rows, row)
	}
	return rows
}

// PacketCountRow is one bar group of Figures 3 and 4: per-host packet
// counts. Host index 0 is the source, matching the paper's x-axes.
type PacketCountRow struct {
	Host  topology.NodeID
	Index int
	// SRM is the count under plain SRM (all multicast).
	SRM int
	// CESRMMulticast is CESRM's count of multicast packets (fallback
	// requests in Figure 3, non-expedited replies in Figure 4).
	CESRMMulticast int
	// CESRMExpedited is CESRM's expedited count (unicast requests in
	// Figure 3, expedited replies in Figure 4).
	CESRMExpedited int
}

// hosts returns source-then-receivers, matching the paper's per-host
// bar ordering with the source as host 0.
func (p *Pair) hosts() []topology.NodeID {
	return append([]topology.NodeID{p.Trace.Tree.Root()}, p.SRM.Receivers...)
}

// Figure3 returns per-host repair request counts: SRM multicast
// requests vs CESRM's multicast (fallback) and unicast (expedited)
// requests.
func (p *Pair) Figure3() []PacketCountRow {
	rows := make([]PacketCountRow, 0, len(p.SRM.Receivers)+1)
	for i, h := range p.hosts() {
		rows = append(rows, PacketCountRow{
			Host:           h,
			Index:          i,
			SRM:            p.SRM.Collector.Counts(h).Requests,
			CESRMMulticast: p.CESRM.Collector.Counts(h).Requests,
			CESRMExpedited: p.CESRM.Collector.Counts(h).ExpRequests,
		})
	}
	return rows
}

// Figure4 returns per-host repair reply counts: SRM replies vs CESRM's
// non-expedited and expedited replies.
func (p *Pair) Figure4() []PacketCountRow {
	rows := make([]PacketCountRow, 0, len(p.SRM.Receivers)+1)
	for i, h := range p.hosts() {
		rows = append(rows, PacketCountRow{
			Host:           h,
			Index:          i,
			SRM:            p.SRM.Collector.Counts(h).Replies,
			CESRMMulticast: p.CESRM.Collector.Counts(h).Replies,
			CESRMExpedited: p.CESRM.Collector.Counts(h).ExpReplies,
		})
	}
	return rows
}

// ExpeditedSuccess returns the Figure 5 (left) metric: the percentage of
// expedited recoveries that succeeded (expedited replies per expedited
// request), and false if CESRM never expedited.
func (p *Pair) ExpeditedSuccess() (float64, bool) {
	ratio, ok := p.CESRM.Collector.ExpeditedSuccessRatio()
	return 100 * ratio, ok
}

// OverheadRow is the Figure 5 (right) metric: CESRM's transmission
// overhead as a percentage of SRM's, in link-crossing units, split into
// retransmissions and control packets (multicast vs unicast). Session
// traffic is identical under both protocols and excluded.
type OverheadRow struct {
	// RetransPct is CESRM's retransmission crossings (multicast +
	// subcast + unicast payload) as % of SRM's.
	RetransPct float64
	// ControlMulticastPct is CESRM's multicast control crossings as % of
	// SRM's control crossings.
	ControlMulticastPct float64
	// ControlUnicastPct is CESRM's unicast control crossings as % of
	// SRM's control crossings.
	ControlUnicastPct float64
}

// ControlTotalPct is the total CESRM control overhead relative to SRM.
func (o OverheadRow) ControlTotalPct() float64 {
	return o.ControlMulticastPct + o.ControlUnicastPct
}

// Overhead computes the Figure 5 (right) row for the pair.
func (p *Pair) Overhead() OverheadRow {
	s := p.SRM.Crossings
	c := p.CESRM.Crossings
	srmRetrans := float64(s.PayloadMulticast + s.PayloadSubcast + s.PayloadUnicast)
	// Subcast control rides in the multicast bucket: it is scoped
	// multicast delivery, and today's protocols emit none of it anyway.
	srmControl := float64(s.ControlMulticast + s.ControlSubcast + s.ControlUnicast)
	row := OverheadRow{}
	if srmRetrans > 0 {
		row.RetransPct = 100 * float64(c.PayloadMulticast+c.PayloadSubcast+c.PayloadUnicast) / srmRetrans
	}
	if srmControl > 0 {
		row.ControlMulticastPct = 100 * float64(c.ControlMulticast+c.ControlSubcast) / srmControl
		row.ControlUnicastPct = 100 * float64(c.ControlUnicast) / srmControl
	}
	return row
}

// LatencyReductionPct returns the headline result: the percentage by
// which CESRM reduces SRM's average normalized recovery time across all
// receivers (the paper reports roughly 50%).
func (p *Pair) LatencyReductionPct() float64 {
	s := p.SRM.Collector.OverallNormalized(p.SRM.RTT)
	c := p.CESRM.Collector.OverallNormalized(p.CESRM.RTT)
	if s.MeanRTT == 0 {
		return 0
	}
	return 100 * (s.MeanRTT - c.MeanRTT) / s.MeanRTT
}
