package core

import (
	"repro/internal/floats"
	"repro/internal/sensors"
)

// attackSubsided is the attack-subsidence test shared by every
// recovering strategy: the attack is deemed over when (a) an end edge (a
// super-physical jump in the attacked channels, i.e. the bias being
// removed) has been seen and the channels have been edge-quiet for a
// hold period, or (b) the attacked channels' residuals against the
// internal estimate (estPS, expanded into PS) stay below δ for the hold
// period, or (c) the recovery duration cap expires.
func (p *Pipeline) attackSubsided(t float64, meas, estPS *sensors.PhysState) bool {
	const (
		holdSec = 1.5
		// armAfterSec ignores onset-related edges: the attack's first
		// biased samples, the reconstruction jump, and the diagnosis
		// settling window all occur within the first second of recovery
		// and must not arm the exit detector.
		armAfterSec = 1.0
	)
	if t-p.recoveryStart >= maxRecoverySec {
		return true
	}
	channels := p.monitoredChannels()

	// Edge detection: a super-physical per-tick jump in the attacked
	// channels (the bias appearing, changing, or being removed). Angular
	// rate channels are excluded: real per-tick rate changes during
	// maneuvers are of the same order as a bias edge, and would keep
	// resetting the quiet timer.
	if p.havePrev {
		// The previous tick's estimate is expanded only here, on the
		// recovery ticks that read it. Tick assigns p.lastInput last, so
		// it still holds the input that tick's expansion used.
		var prevEst, dMeas, dEst sensors.PhysState
		p.expandPS(&prevEst, &p.prevFused)
		sensors.AbsDiffInto(&dMeas, meas, &p.prevMeas)
		sensors.AbsDiffInto(&dEst, estPS, &prevEst)
		for _, idx := range channels {
			if idx >= sensors.SWRoll && idx <= sensors.SWYaw {
				continue
			}
			if dMeas[idx]-dEst[idx] > 2*p.cfg.Delta[idx] {
				if t-p.recoveryStart >= armAfterSec {
					// A late edge arms the exit: it is the bias being
					// removed or modulated; quiet after it means the
					// attack has ended.
					p.endEdgeSeen = true
				}
				p.quietSince = t
				break
			}
		}
	}
	if p.endEdgeSeen && t-p.quietSince >= holdSec {
		return true
	}

	// Residual quiescence: the attacked channels agree with the internal
	// estimate for the hold period. (Only reachable when the recovery
	// estimate is accurate — i.e. targeted recovery with good
	// reconstruction; the worst-case roll-forward exits via the edge path
	// or the duration cap.)
	if t-p.recoveryStart < armAfterSec {
		return false
	}
	// The margin (0.7δ) guards against drifting dead-reckoned estimates
	// momentarily agreeing with still-biased measurements.
	var resid sensors.PhysState
	sensors.AbsDiffInto(&resid, meas, estPS)
	for _, idx := range channels {
		if resid[idx] > 0.7*p.cfg.Delta[idx] {
			p.residQuietSince = t
			return false
		}
	}
	if floats.Zero(p.residQuietSince) {
		p.residQuietSince = t
	}
	return t-p.residQuietSince >= holdSec
}

// monitoredChannels returns the channels whose residuals/edges govern
// recovery exit: the compromised sensors' states for the isolating
// strategies, every monitored state for the tolerating ones.
// It runs every recovery tick, so it reuses the pipeline's channel buffer
// instead of materializing set.List().
func (p *Pipeline) monitoredChannels() []sensors.StateIndex {
	set := p.compromised
	if set.Len() == 0 {
		set = sensors.All
	}
	out := p.monitorBuf[:0]
	for _, typ := range sensors.AllTypes() {
		if !set.Has(typ) {
			continue
		}
		for _, idx := range sensors.StatesOf(typ) {
			if p.cfg.Delta[idx] > 0 {
				out = append(out, idx)
			}
		}
	}
	p.monitorBuf = out
	return out
}
