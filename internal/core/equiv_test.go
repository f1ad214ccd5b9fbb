package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// The staged pipeline must be bit-exact against the legacy monolith
// (legacy_oracle_test.go): same construction, same mixed attack/no-attack
// step sequence, Float64bits-identical outputs every tick. The scenario
// deliberately walks the whole FSM — clean cruise (Nominal), a detector
// alert (Suspicious), diagnosis and engagement (Diagnosing→Recovering),
// re-validation (Revalidating), subsidence and hand-back
// (Exiting→Nominal), then a second attack episode for re-entry paths.

// equivSteps is the mixed step schedule: >200 steps per episode phase,
// two attack episodes on different sensors.
const equivSteps = 3000

// equivMeas returns the (shared) measurement for step i: a gently
// maneuvering quad/rover PS vector with a 30 m GPS bias in the first
// attack window and a gyro/accel bias in the second.
func equivMeas(i int) sensors.PhysState {
	t := float64(i) * 0.01
	s := vehicle.State{
		Z:  10 + 0.05*math.Sin(t/3),
		VX: 0.2 * math.Sin(t/5),
		VY: 0.1 * math.Cos(t/7),
	}
	accel := [3]float64{0.04 * math.Cos(t/5), -0.014 * math.Sin(t/7), 0}
	meas := sensors.TruePhysState(s, accel, sensors.BodyField(0))
	switch {
	case i >= 600 && i < 1100:
		// Episode 1: GPS position/velocity bias.
		meas[sensors.SX] += 30
		meas[sensors.SVX] += 1
	case i >= 1900 && i < 2400:
		// Episode 2 (after a clean re-acquisition gap): inertial bias.
		meas[sensors.SRoll] += 0.5
		meas[sensors.SWRoll] += 2
		meas[sensors.SAX] += 4
	}
	return meas
}

func equivTarget(i int) mission.Waypoint {
	t := float64(i) * 0.01
	return mission.Waypoint{X: 0.5 * t, Z: 10}
}

func b64(f float64) uint64 { return math.Float64bits(f) }

// requireStateBits fails when two vehicle states differ in any bit.
func requireStateBits(t *testing.T, step int, what string, a, b vehicle.State) {
	t.Helper()
	av, bv := a.Vec(), b.Vec()
	for k := range av {
		if b64(av[k]) != b64(bv[k]) {
			t.Fatalf("step %d: %s[%d] = %v (pipeline) vs %v (legacy)", step, what, k, av[k], bv[k])
		}
	}
}

func runEquiv(t *testing.T, profile vehicle.ProfileName, strategy Strategy) {
	t.Helper()
	prof := vehicle.MustProfile(profile)
	mkCfg := func(tel *telemetry.Recorder) Config {
		return Config{
			Profile:   prof,
			DT:        0.01,
			Delta:     DefaultDelta(prof),
			WindowSec: 5,
			Telemetry: tel,
		}
	}
	telNew := telemetry.NewRecorder()
	telOld := telemetry.NewRecorder()
	p, err := New(mkCfg(telNew), strategy)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	legacy, err := newLegacyFramework(mkCfg(telOld), strategy)
	if err != nil {
		t.Fatalf("newLegacyFramework: %v", err)
	}
	start := vehicle.State{Z: 10}
	p.Init(start)
	legacy.Init(start)

	sawRecovery, sawExit := false, false
	for i := 0; i < equivSteps; i++ {
		tt := float64(i) * 0.01
		meas := equivMeas(i)
		target := equivTarget(i)
		uN := p.Tick(tt, meas, target)
		uO := legacy.Tick(tt, meas, target)
		if b64(uN.Thrust) != b64(uO.Thrust) || b64(uN.MRoll) != b64(uO.MRoll) ||
			b64(uN.MPitch) != b64(uO.MPitch) || b64(uN.MYaw) != b64(uO.MYaw) {
			t.Fatalf("step %d: input diverged: %+v (pipeline) vs %+v (legacy)", i, uN, uO)
		}
		requireStateBits(t, i, "believed", p.Believed(), legacy.Believed())
		if p.Recovering() != legacy.Recovering() {
			t.Fatalf("step %d: Recovering %v vs %v", i, p.Recovering(), legacy.Recovering())
		}
		if p.AlertActive() != legacy.AlertActive() {
			t.Fatalf("step %d: AlertActive %v vs %v", i, p.AlertActive(), legacy.AlertActive())
		}
		if p.Compromised() != legacy.Compromised() {
			t.Fatalf("step %d: Compromised %v vs %v", i, p.Compromised(), legacy.Compromised())
		}
		eN, eO := p.LastError(), legacy.LastError()
		for k := range eN {
			if b64(eN[k]) != b64(eO[k]) {
				t.Fatalf("step %d: LastError[%d] = %v vs %v", i, k, eN[k], eO[k])
			}
		}
		if legacy.Recovering() {
			sawRecovery = true
		} else if sawRecovery {
			sawExit = true
		}
	}

	if p.DiagnosisRan() != legacy.DiagnosisRan() {
		t.Errorf("DiagnosisRan %v vs %v", p.DiagnosisRan(), legacy.DiagnosisRan())
	}
	if p.RecoveryActivations() != legacy.RecoveryActivations() {
		t.Errorf("RecoveryActivations %d vs %d", p.RecoveryActivations(), legacy.RecoveryActivations())
	}
	if p.MemoryBytes() != legacy.MemoryBytes() {
		t.Errorf("MemoryBytes %d vs %d", p.MemoryBytes(), legacy.MemoryBytes())
	}
	dN, tN, kN := p.Overhead()
	dO, tO, kO := legacy.Overhead()
	if dN != dO || tN != tO || kN != kO {
		t.Errorf("Overhead (%d,%d,%d) vs (%d,%d,%d)", dN, tN, kN, dO, tO, kO)
	}
	if p.Stages() != legacy.Stages() {
		t.Errorf("Stages %+v vs %+v", p.Stages(), legacy.Stages())
	}
	if !reflect.DeepEqual(telNew.Mission(), telOld.Mission()) {
		t.Errorf("telemetry diverged:\npipeline: %+v\nlegacy:   %+v", telNew.Mission(), telOld.Mission())
	}

	// The scenario must actually exercise the defense: every defended
	// strategy should engage recovery at least once and hand back.
	if strategy != StrategyNone {
		if !sawRecovery {
			t.Error("scenario never engaged recovery; equivalence vacuous")
		}
		if !sawExit {
			t.Error("scenario never exited recovery; equivalence vacuous")
		}
	}
}

func TestPipelineEquivalence(t *testing.T) {
	for _, strategy := range AllStrategies() {
		t.Run(strategy.String(), func(t *testing.T) {
			runEquiv(t, vehicle.ArduCopter, strategy)
		})
	}
}

// The rover profile drives the non-quad branches of the shared plant
// (approxModel, modelAccel) through the same oracle.
func TestPipelineEquivalenceRover(t *testing.T) {
	for _, strategy := range []Strategy{StrategyDeLorean, StrategySSR} {
		t.Run(strategy.String(), func(t *testing.T) {
			runEquiv(t, vehicle.ArduRover, strategy)
		})
	}
}
