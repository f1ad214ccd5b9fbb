package core

import (
	"fmt"
	"strings"

	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// Strategy selects the defense variant under evaluation.
type Strategy int

// The defense strategies of the evaluation (§5.1).
const (
	// StrategyNone flies undefended on the fused estimate.
	StrategyNone Strategy = iota + 1
	// StrategyDeLorean is the paper's contribution: diagnosis-guided
	// targeted recovery.
	StrategyDeLorean
	// StrategyLQRO is Zhang et al.'s worst-case checkpoint recovery: on
	// detection all sensors are isolated regardless of how many are
	// attacked.
	StrategyLQRO
	// StrategySSR is Choi et al.'s software-sensor recovery: on detection
	// the controller flies on virtual (approximate-model) sensor values,
	// anchored at the possibly-corrupted current estimate.
	StrategySSR
	// StrategyPIDPiper is Dash et al.'s feed-forward-controller recovery:
	// it blends a model feed-forward estimate with the (still attacked)
	// fused feedback rather than isolating sensors.
	StrategyPIDPiper
)

// String names the strategy as in the paper's tables. The switch is
// deliberately default-free: it is covered by the exhaustive lint
// analyzer, so adding a Strategy constant without naming it here fails
// `delint` instead of silently stringifying through a fallback.
func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "None"
	case StrategyDeLorean:
		return "DeLorean"
	case StrategyLQRO:
		return "LQR-O"
	case StrategySSR:
		return "SSR"
	case StrategyPIDPiper:
		return "PID-Piper"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// strategyDef is one registry entry: the strategy, its accepted spellings,
// and its whole composition. The compared defenses differ in only three
// ways (§5.1) — which sensors they isolate, how they seed the recovery
// estimate, and which control law flies the episode — plus three
// episode-shape flags. The registry mirrors the experiment registry
// (internal/experiments): a fixed declarative table that every lookup and
// construction path goes through, so a new strategy is added in exactly
// one place. The tick path switches on the row's fields and never on the
// Strategy value.
type strategyDef struct {
	strategy Strategy
	// aliases are the lower-cased accepted spellings; the first is the
	// canonical lower-cased String() form.
	aliases []string

	isolation isolation
	seeding   seeding
	law       recoveryLaw

	// revalidate enables the per-sensor re-validation loop and with it
	// the ModeRevalidating FSM state (targeted recovery only).
	revalidate bool
	// unionWindow enables the post-engagement settling window in which
	// diagnosis keeps running and may widen the isolated set (slow
	// sensors reveal their bias only at their next sample).
	unionWindow bool
	// virtualBelieved serves the virtual-sensor model state as the
	// believed state while recovery is engaged (SSR flies — and reports —
	// its approximate-model state, not the fused estimate).
	virtualBelieved bool
}

// isolation is a strategy's triage policy: whether it acts on alerts at
// all, and which sensors it masks for a non-empty diagnosis verdict.
type isolation int

const (
	// noTriage never acts on an alert: the undefended baseline records
	// alerts (detection latency is a detector property, not a recovery
	// property) and flies on.
	noTriage isolation = iota + 1
	// isolateDiagnosed masks exactly the diagnosed sensors (DeLorean).
	isolateDiagnosed
	// isolateAll masks every sensor on any non-empty verdict (LQR-O's
	// worst-case assumption).
	isolateAll
	// isolateNothing masks no sensor: SSR and PID-Piper tolerate the
	// attack with model-derived state.
	isolateNothing
)

// seeding is how a strategy seeds the recovery estimate at engagement
// (§4.3).
type seeding int

const (
	// seedHybrid replays the checkpoint window and installs the hybrid
	// state X'(t_a): replayed channels for the isolated sensors, live
	// ones elsewhere (DeLorean).
	seedHybrid seeding = iota + 1
	// seedRollForward replays the checkpoint window open-loop, trusting
	// no sensor (LQR-O).
	seedRollForward
	// seedAtEstimate anchors the virtual-sensor model state at the
	// current fused estimate. SSR and PID-Piper keep no checkpoints, so a
	// pre-engagement corruption of the estimate is carried into recovery
	// (the approximation weakness the paper identifies in SSR, §3.1).
	seedAtEstimate
)

// recoveryLaw is the control law that flies a recovery episode.
type recoveryLaw int

const (
	// lawTargeted derives its actions "corresponding to the compromised
	// sensors": with position feedback intact (GPS clean) the nominal
	// autopilot continues the mission on the masked estimate; without
	// it, the conservative LQR flies the dead-reckoned estimate
	// (DeLorean).
	lawTargeted recoveryLaw = iota + 1
	// lawLQR flies the conservative LQR on the fully masked estimate
	// (LQR-O).
	lawLQR
	// lawVirtualSensors flies the autopilot on the approximate-model
	// state: Choi et al.'s software sensors (SSR).
	lawVirtualSensors
	// lawFeedForward blends a model feed-forward action with the (still
	// attacked) fused feedback: Dash et al.'s feed-forward controller
	// (PID-Piper).
	lawFeedForward
)

// strategyDefs is the registry in Strategy declaration order. It is
// read-only: a pipeline keeps a copy of its row, whose aliases share the
// table's static arrays, so New allocates nothing for it.
var strategyDefs = []strategyDef{
	{
		strategy:  StrategyNone,
		aliases:   []string{"none"},
		isolation: noTriage,
	},
	{
		strategy:    StrategyDeLorean,
		aliases:     []string{"delorean"},
		isolation:   isolateDiagnosed,
		seeding:     seedHybrid,
		law:         lawTargeted,
		revalidate:  true,
		unionWindow: true,
	},
	{
		strategy:  StrategyLQRO,
		aliases:   []string{"lqr-o", "lqro"},
		isolation: isolateAll,
		seeding:   seedRollForward,
		law:       lawLQR,
	},
	{
		strategy:        StrategySSR,
		aliases:         []string{"ssr"},
		isolation:       isolateNothing,
		seeding:         seedAtEstimate,
		law:             lawVirtualSensors,
		virtualBelieved: true,
	},
	{
		strategy:  StrategyPIDPiper,
		aliases:   []string{"pid-piper", "pidpiper"},
		isolation: isolateNothing,
		seeding:   seedAtEstimate,
		law:       lawFeedForward,
	},
}

// AllStrategies returns every registered strategy in declaration order.
func AllStrategies() []Strategy {
	out := make([]Strategy, len(strategyDefs))
	for i, d := range strategyDefs {
		out[i] = d.strategy
	}
	return out
}

// StrategyByName resolves a strategy from its table name (as printed by
// String) or a registered alias, case-insensitively. It reports false for
// unknown names.
func StrategyByName(name string) (Strategy, bool) {
	lower := strings.ToLower(strings.TrimSpace(name))
	for _, d := range strategyDefs {
		for _, alias := range d.aliases {
			if alias == lower {
				return d.strategy, true
			}
		}
	}
	return 0, false
}

// lookupDef returns the registry entry for s.
func lookupDef(s Strategy) (strategyDef, bool) {
	for _, d := range strategyDefs {
		if d.strategy == s {
			return d, true
		}
	}
	return strategyDef{}, false
}

// isolated returns the sensors the strategy masks for a non-empty
// diagnosis verdict.
func (p *Pipeline) isolated(diagnosed sensors.TypeSet) sensors.TypeSet {
	switch p.def.isolation {
	case isolateDiagnosed:
		return diagnosed
	case isolateAll:
		return sensors.All
	case noTriage, isolateNothing:
	}
	return 0
}

// seedRecovery installs the recovery starting estimate. anchorFresh
// reports whether the latest trusted checkpoint is recent enough for a
// replay to beat the live estimate; if it is not, the checkpoint-based
// strategies keep the estimate and only isolation applies.
func (p *Pipeline) seedRecovery(meas *sensors.PhysState, anchorFresh bool) {
	switch p.def.seeding {
	case seedHybrid:
		if !anchorFresh {
			return
		}
		p.chargeReconstruction()
		if _, hybrid, stats, err := p.reconstructor.Reconstruct(p.recorder, *meas, p.compromised); err == nil {
			p.filter.SetState(hybrid)
			p.tel.Reconstruction(p.ticks, stats.Records)
		}
	case seedRollForward:
		if !anchorFresh {
			return
		}
		p.chargeReconstruction()
		if rolled, stats, err := p.reconstructor.RollForward(p.recorder, p.compromised); err == nil {
			p.filter.SetState(rolled)
			p.tel.Reconstruction(p.ticks, stats.Records)
		}
	case seedAtEstimate:
		p.ssrState = *p.filter.Estimate()
	}
}

// flyRecovery flies one recovery-mode control period. The strategies
// drive the pipeline's shared, stateful controllers (the nominal
// autopilot's PID integrators, the conservative LQR); the law chooses
// which controller flies on which state.
func (p *Pipeline) flyRecovery(target mission.Waypoint) vehicle.Input {
	dt := p.cfg.DT
	switch p.def.law {
	case lawTargeted:
		if !p.compromised.Has(sensors.GPS) {
			return p.autopilot.Update(p.filter.Estimate(), target, dt)
		}
	case lawLQR:
	case lawVirtualSensors:
		u := p.autopilot.Update(&p.ssrState, target, dt)
		p.approxStep(&p.ssrState, &p.ssrState, u, dt)
		return u
	case lawFeedForward:
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
	// lawLQR, and lawTargeted without position feedback.
	return p.recoveryCtl.Update(p.filter.Estimate(), target)
}

// controllerName names the controller that flies the episode with the
// current isolated set, for the recovery-engaged event.
func (p *Pipeline) controllerName() string {
	switch p.def.law {
	case lawTargeted:
		if !p.compromised.Has(sensors.GPS) {
			return "autopilot"
		}
	case lawLQR:
	case lawVirtualSensors:
		return "virtual-sensors"
	case lawFeedForward:
		return "ffc"
	}
	// lawLQR, and lawTargeted without position feedback.
	return "lqr"
}
