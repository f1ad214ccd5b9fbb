package core

import (
	"repro/internal/sensors"
	"repro/internal/telemetry"
)

// The reconstruction stage implementations (§4.3). The checkpoint-based
// strategies replay recorded history through the dynamics model; the
// tolerating strategies anchor their virtual-model state at the current
// (possibly already corrupted) estimate — the approximation weakness the
// paper identifies in SSR (§3.1).

// hybridReconstruct replays the checkpoint window and installs the
// hybrid state X'(t_a) — reconstructed channels for the isolated
// sensors, live estimate elsewhere (DeLorean). If the trusted anchor is
// stale, the live estimate is kept and only isolation applies.
type hybridReconstruct struct{ p *Pipeline }

func (s hybridReconstruct) Seed(t float64, meas *sensors.PhysState, anchorFresh bool) {
	if !anchorFresh {
		return
	}
	p := s.p
	p.chargeReconstruction()
	if _, hybrid, stats, err := p.reconstructor.Reconstruct(p.recorder, *meas, p.compromised); err == nil {
		p.filter.SetState(hybrid)
		p.tel.Reconstruction(p.ticks, stats.Records)
	}
}

// rollForwardReconstruct replays the checkpoint window open-loop — the
// pure model roll-forward of the worst-case strategy (LQR-O), which
// trusts no sensor.
type rollForwardReconstruct struct{ p *Pipeline }

func (s rollForwardReconstruct) Seed(t float64, meas *sensors.PhysState, anchorFresh bool) {
	if !anchorFresh {
		return
	}
	p := s.p
	p.chargeReconstruction()
	if rolled, stats, err := p.reconstructor.RollForward(p.recorder, p.compromised); err == nil {
		p.filter.SetState(rolled)
		p.tel.Reconstruction(p.ticks, stats.Records)
	}
}

// anchorCurrent seeds the virtual-sensor model state at the current
// fused estimate — SSR and PID-Piper have no checkpointing, so a
// pre-engagement corruption of the estimate is carried into recovery.
type anchorCurrent struct{ p *Pipeline }

func (s anchorCurrent) Seed(t float64, meas *sensors.PhysState, anchorFresh bool) {
	s.p.ssrState = *s.p.filter.Estimate()
}

// widenReconstruction re-seeds after a widened verdict during the
// settling window: same hybrid replay, gated only on anchor freshness
// relative to the window (the rapid-re-entry staleness rule does not
// apply mid-episode).
func (p *Pipeline) widenReconstruction(t float64, meas *sensors.PhysState) {
	if rec, ok := p.recorder.LatestTrusted(); ok && t-rec.T <= 2*p.cfg.WindowSec+5 {
		p.comp.Reconstruct.Seed(t, meas, true)
	}
}

// chargeReconstruction accrues a checkpoint replay over the recorded
// window (WindowSec at the control rate). The charge is a fixed function
// of the window — not of the replay's actual record count — so the
// modeled overhead stays independent of when within the window the alert
// fired; telemetry reports the actual counts separately.
func (p *Pipeline) chargeReconstruction() {
	records := int64(p.cfg.WindowSec / p.cfg.DT)
	if records < 1 {
		records = 1
	}
	p.charge(telemetry.StageReconstruct, records*costReconstructPerRecordNS)
}
