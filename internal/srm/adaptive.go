package srm

import (
	"fmt"
	"time"
)

// AdaptiveConfig enables SRM's adaptive timer adjustment, in the spirit
// of the algorithm of Floyd et al. (ToN 1997, §VI): each host tunes its
// request parameters C1/C2 (and reply parameters D1/D2) from the
// duplicate requests (replies) it observes and the delay its recoveries
// incur, trading recovery latency against duplicate suppression.
//
// The CESRM paper's evaluation uses fixed parameters (C1=C2=2,
// D1=D2=1); adaptive timers are provided as the natural SRM extension
// and exercised by the BenchmarkAblationAdaptiveTimers ablation.
type AdaptiveConfig struct {
	// Enabled turns adaptation on.
	Enabled bool
	// TargetDupRequests is the tolerated average number of duplicate
	// requests per loss before the request window widens (Floyd et
	// al.'s AveDups, default 1).
	TargetDupRequests float64
	// TargetReqDelay is the tolerated average request delay in units of
	// the one-way distance to the source before the window shrinks
	// (AveDelay, default 4 — roughly the fixed schedule's midpoint).
	TargetReqDelay float64
	// TargetDupReplies and TargetRepDelay play the same roles for the
	// reply window.
	TargetDupReplies float64
	TargetRepDelay   float64
	// Gain scales the additive adjustment steps; zero selects 1.
	Gain float64
	// Bounds clamp the adapted parameters.
	MinC1, MaxC1 float64
	MinC2, MaxC2 float64
	MinD1, MaxD1 float64
	MinD2, MaxD2 float64
}

// DefaultAdaptiveConfig returns an enabled configuration with the
// conventional targets and generous bounds.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Enabled:           true,
		TargetDupRequests: 1,
		TargetReqDelay:    4,
		TargetDupReplies:  1,
		TargetRepDelay:    2,
		Gain:              1,
		MinC1:             0.5, MaxC1: 8,
		MinC2: 0.5, MaxC2: 8,
		MinD1: 0.5, MaxD1: 8,
		MinD2: 0.5, MaxD2: 8,
	}
}

// Validate checks the adaptive configuration.
func (c AdaptiveConfig) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.TargetDupRequests < 0 || c.TargetDupReplies < 0 {
		return fmt.Errorf("srm: negative duplicate targets %+v", c)
	}
	if c.Gain < 0 {
		return fmt.Errorf("srm: negative adaptation gain %v", c.Gain)
	}
	if c.MinC1 > c.MaxC1 || c.MinC2 > c.MaxC2 || c.MinD1 > c.MaxD1 || c.MinD2 > c.MaxD2 {
		return fmt.Errorf("srm: inverted adaptation bounds %+v", c)
	}
	if c.MinC1 < 0 || c.MinC2 < 0 || c.MinD1 < 0 || c.MinD2 < 0 {
		return fmt.Errorf("srm: negative adaptation bounds %+v", c)
	}
	return nil
}

// adaptiveState carries a host's exponentially weighted duplicate and
// delay averages. The EWMA weight follows the SRM paper's
// "3/4 old + 1/4 new" smoothing.
type adaptiveState struct {
	aveDupReq   float64
	aveReqDelay float64
	haveReq     bool
	aveDupRep   float64
	aveRepDelay float64
	haveRep     bool
}

const ewmaNew = 0.25

func ewma(old, sample float64, initialized bool) float64 {
	if !initialized {
		return sample
	}
	return (1-ewmaNew)*old + ewmaNew*sample
}

// observeRequestRecovery folds one completed recovery into the request
// averages and adjusts C1/C2: too many duplicate requests per loss mean
// suppression is too weak (widen the window); few duplicates but long
// delays mean the window is needlessly wide (shrink it).
func (a *Agent) observeRequestRecovery(stream *streamState, ls *lossRecord) {
	cfg := a.adaptiveCfg
	if !cfg.Enabled {
		return
	}
	dups := float64(ls.ownRequests + ls.foreignRequests)
	if dups > 0 {
		dups-- // duplicates are requests beyond the first
	}
	st := &a.adaptive
	st.aveDupReq = ewma(st.aveDupReq, dups, st.haveReq)
	d := a.Distance(stream.source)
	if d > 0 && ls.firstRequestAt > 0 {
		delay := float64(ls.firstRequestAt.Sub(ls.detectedAt)) / float64(d)
		st.aveReqDelay = ewma(st.aveReqDelay, delay, st.haveReq)
	}
	st.haveReq = true

	step := 0.1 * cfg.Gain
	switch {
	case st.aveDupReq >= cfg.TargetDupRequests:
		// Duplicates: strengthen suppression by widening and shifting
		// the request window.
		a.p.C1 = clampF(a.p.C1+step/2, cfg.MinC1, cfg.MaxC1)
		a.p.C2 = clampF(a.p.C2+step*5, cfg.MinC2, cfg.MaxC2)
	case st.aveReqDelay > cfg.TargetReqDelay:
		// No duplicate pressure and slow requests: tighten the window.
		if a.p.C2 > cfg.MinC2 {
			a.p.C2 = clampF(a.p.C2-step*5, cfg.MinC2, cfg.MaxC2)
		} else {
			a.p.C1 = clampF(a.p.C1-step/2, cfg.MinC1, cfg.MaxC1)
		}
	}
}

// observeReplyOutcome folds one reply round into the reply averages and
// adjusts D1/D2 symmetrically.
func (a *Agent) observeReplyOutcome(rs *replyState, dupReplies int, delay time.Duration, dist time.Duration) {
	cfg := a.adaptiveCfg
	if !cfg.Enabled {
		return
	}
	st := &a.adaptive
	st.aveDupRep = ewma(st.aveDupRep, float64(dupReplies), st.haveRep)
	if dist > 0 {
		st.aveRepDelay = ewma(st.aveRepDelay, float64(delay)/float64(dist), st.haveRep)
	}
	st.haveRep = true

	step := 0.1 * cfg.Gain
	switch {
	case st.aveDupRep >= cfg.TargetDupReplies:
		a.p.D1 = clampF(a.p.D1+step/2, cfg.MinD1, cfg.MaxD1)
		a.p.D2 = clampF(a.p.D2+step*5, cfg.MinD2, cfg.MaxD2)
	case st.aveRepDelay > cfg.TargetRepDelay:
		if a.p.D2 > cfg.MinD2 {
			a.p.D2 = clampF(a.p.D2-step*5, cfg.MinD2, cfg.MaxD2)
		} else {
			a.p.D1 = clampF(a.p.D1-step/2, cfg.MinD1, cfg.MaxD1)
		}
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// EnableAdaptiveTimers switches the agent to adaptive scheduling. It
// must be called before the simulation starts.
func (a *Agent) EnableAdaptiveTimers(cfg AdaptiveConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	a.adaptiveCfg = cfg
	return nil
}

// AdaptedParams returns the agent's current (possibly adapted)
// scheduling parameters.
func (a *Agent) AdaptedParams() Params { return a.p }
