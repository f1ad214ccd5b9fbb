package sim

import (
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/sensors"
)

// Additional integration tests: per-sensor attacks and the tolerating
// (SSR / PID-Piper) strategies.

func TestMagAttackDeLorean(t *testing.T) {
	cfg := baseCfg(core.StrategyDeLorean, 21)
	rng := rand.New(rand.NewSource(21))
	sda := attack.New(rng, attack.DefaultParams(), sensors.NewTypeSet(sensors.Mag), 15, 35)
	cfg.Attacks = attack.NewSchedule(sda)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DiagnosedDuringAttack.Has(sensors.Mag) {
		t.Errorf("mag attack not diagnosed: %v", res.DiagnosedDuringAttack)
	}
	if res.Crashed {
		t.Errorf("crashed under mag-only SDA: %+v", res.CrashReason)
	}
	if !res.Success {
		t.Errorf("mag-only SDA should be recoverable: %+v", res)
	}
}

func TestBaroAttackDeLorean(t *testing.T) {
	cfg := baseCfg(core.StrategyDeLorean, 22)
	rng := rand.New(rand.NewSource(22))
	sda := attack.New(rng, attack.DefaultParams(), sensors.NewTypeSet(sensors.Baro), 15, 35)
	cfg.Attacks = attack.NewSchedule(sda)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DiagnosedDuringAttack.Has(sensors.Baro) {
		t.Errorf("baro attack not diagnosed: %v", res.DiagnosedDuringAttack)
	}
	if !res.Success {
		t.Errorf("baro-only SDA should be recoverable: %+v", res)
	}
}

func TestAccelAttackDeLorean(t *testing.T) {
	cfg := baseCfg(core.StrategyDeLorean, 23)
	rng := rand.New(rand.NewSource(23))
	sda := attack.New(rng, attack.DefaultParams(), sensors.NewTypeSet(sensors.Accel), 15, 35)
	cfg.Attacks = attack.NewSchedule(sda)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DiagnosedDuringAttack.Has(sensors.Accel) {
		t.Errorf("accel attack not diagnosed: %v", res.DiagnosedDuringAttack)
	}
	if !res.Success {
		t.Errorf("accel-only SDA should be recoverable: %+v", res)
	}
}

func TestSSRActivatesOnAttack(t *testing.T) {
	cfg := baseCfg(core.StrategySSR, 24)
	rng := rand.New(rand.NewSource(24))
	sda := attack.New(rng, attack.DefaultParams(), sensors.NewTypeSet(sensors.GPS), 15, 30)
	cfg.Attacks = attack.NewSchedule(sda)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecoveryActivations == 0 {
		t.Error("SSR never engaged its virtual sensors")
	}
}

func TestPIDPiperActivatesOnAttack(t *testing.T) {
	cfg := baseCfg(core.StrategyPIDPiper, 25)
	rng := rand.New(rand.NewSource(25))
	sda := attack.New(rng, attack.DefaultParams(), sensors.NewTypeSet(sensors.GPS), 15, 30)
	cfg.Attacks = attack.NewSchedule(sda)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecoveryActivations == 0 {
		t.Error("PID-Piper never engaged its FFC")
	}
}

func TestAllSensorAttackCheckpointMethodsSurvive(t *testing.T) {
	// Worst case: all five sensor types attacked. The checkpoint-based
	// techniques should avoid crashing (paper: ≤4% crash at k=5).
	for _, strat := range []core.Strategy{core.StrategyLQRO, core.StrategyDeLorean} {
		t.Run(strat.String(), func(t *testing.T) {
			cfg := baseCfg(strat, 26)
			rng := rand.New(rand.NewSource(26))
			sda := attack.New(rng, attack.DefaultParams(), sensors.NewTypeSet(sensors.AllTypes()...), 15, 30)
			cfg.Attacks = attack.NewSchedule(sda)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Crashed {
				t.Errorf("%v crashed under all-sensor SDA: %s", strat, res.CrashReason)
			}
		})
	}
}

func TestCollectErrorsProducesSamples(t *testing.T) {
	cfg := baseCfg(core.StrategyNone, 27)
	cfg.CollectErrors = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ErrorSamples) == 0 {
		t.Fatal("no error samples collected")
	}
	for _, e := range res.ErrorSamples {
		if !e.IsFinite() {
			t.Fatal("non-finite error sample")
		}
	}
}

func TestOverheadTelemetry(t *testing.T) {
	res, err := Run(baseCfg(core.StrategyDeLorean, 28))
	if err != nil {
		t.Fatal(err)
	}
	if res.DefenseNS <= 0 || res.TotalNS <= 0 || res.Ticks <= 0 {
		t.Errorf("missing overhead telemetry: %+v", res)
	}
	if res.DefenseNS > res.TotalNS {
		t.Error("defense time exceeds total loop time")
	}
	if res.MemoryBytes <= 0 {
		t.Error("no checkpoint memory recorded")
	}
	if res.EnergyProxy <= 0 {
		t.Error("no energy recorded")
	}
}

func TestGPSDropoutFailureInjection(t *testing.T) {
	// Failure injection: the GPS dies mid-flight (holds stale values).
	// The framework should treat the frozen channel like an anomaly,
	// isolate it, and finish the mission on the remaining sensors.
	cfg := baseCfg(core.StrategyDeLorean, 33)
	cfg.DropoutAt = 15
	cfg.DropoutSensors = []sensors.Type{sensors.GPS}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Errorf("crashed on GPS dropout: %s", res.CrashReason)
	}
	if !res.Completed {
		t.Errorf("mission did not complete after GPS dropout: %+v", res)
	}
	// A stale-held GPS on a moving vehicle must have raised an alert and
	// implicated the GPS.
	if res.RecoveryActivations == 0 {
		t.Error("dropout never triggered recovery")
	}
}

// Property: attack-free missions never trigger recovery, across seeds and
// wind draws (the gratuitous-activation invariant of §6.1).
func TestPropertyNoGratuitousRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full missions")
	}
	for seed := int64(40); seed < 46; seed++ {
		cfg := baseCfg(core.StrategyDeLorean, seed)
		cfg.WindMean = float64(seed%4) * 0.8
		cfg.WindGust = 0.5
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.RecoveryActivations != 0 {
			t.Errorf("seed %d: %d gratuitous activations (wind %.1f)", seed, res.RecoveryActivations, cfg.WindMean)
		}
	}
}
