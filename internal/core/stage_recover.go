package core

import (
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// The recovery-controller stage implementations. All of them drive the
// pipeline's shared, stateful controllers (the nominal autopilot's PID
// integrators, the conservative LQR) — the stage owns the policy of
// which controller flies on which state, not the controller itself.

// targetedRecovery derives its control actions "corresponding to the
// compromised sensors": with position feedback intact (GPS clean) the
// mission continues under the nominal autopilot at mission speed, only
// the isolated sensors being masked; without it, the conservative LQR
// flies the dead-reckoned estimate (DeLorean).
type targetedRecovery struct{ p *Pipeline }

func (s targetedRecovery) Update(t float64, target mission.Waypoint) vehicle.Input {
	p := s.p
	if !p.compromised.Has(sensors.GPS) {
		return p.autopilot.Update(p.filter.Estimate(), target, p.cfg.DT)
	}
	return p.recoveryCtl.Update(p.filter.Estimate(), target, p.cfg.DT)
}

func (s targetedRecovery) Describe(isolated sensors.TypeSet) string {
	if isolated.Has(sensors.GPS) {
		return "lqr"
	}
	return "autopilot"
}

// conservativeRecovery flies the LQR on the fully-masked estimate — the
// pure model roll-forward (LQR-O).
type conservativeRecovery struct{ p *Pipeline }

func (s conservativeRecovery) Update(t float64, target mission.Waypoint) vehicle.Input {
	p := s.p
	return p.recoveryCtl.Update(p.filter.Estimate(), target, p.cfg.DT)
}

func (s conservativeRecovery) Describe(isolated sensors.TypeSet) string { return "lqr" }

// virtualSensorRecovery flies the controller on the approximate-model
// state — Choi et al.'s software sensors (SSR).
type virtualSensorRecovery struct{ p *Pipeline }

func (s virtualSensorRecovery) Update(t float64, target mission.Waypoint) vehicle.Input {
	p := s.p
	dt := p.cfg.DT
	u := p.autopilot.Update(&p.ssrState, target, dt)
	p.approxStep(&p.ssrState, &p.ssrState, u, dt)
	return u
}

func (s virtualSensorRecovery) Describe(isolated sensors.TypeSet) string {
	return "virtual-sensors"
}

// ffcRecovery blends a model feed-forward action with the (still
// attacked) fused feedback — Dash et al.'s feed-forward controller
// (PID-Piper).
type ffcRecovery struct{ p *Pipeline }

func (s ffcRecovery) Update(t float64, target mission.Waypoint) vehicle.Input {
	p := s.p
	dt := p.cfg.DT
	ff := p.autopilot.Update(&p.ssrState, target, dt)
	fb := p.autopilot.Update(p.filter.Estimate(), target, dt)
	const alpha = 0.3 // feedback share
	u := vehicle.Input{
		Thrust: (1-alpha)*ff.Thrust + alpha*fb.Thrust,
		MRoll:  (1-alpha)*ff.MRoll + alpha*fb.MRoll,
		MPitch: (1-alpha)*ff.MPitch + alpha*fb.MPitch,
		MYaw:   (1-alpha)*ff.MYaw + alpha*fb.MYaw,
	}
	p.step(&p.ssrState, &p.ssrState, u, dt)
	return u
}

func (s ffcRecovery) Describe(isolated sensors.TypeSet) string { return "ffc" }
