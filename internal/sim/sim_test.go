package sim

import (
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

func baseCfg(strategy core.Strategy, seed int64) Config {
	return Config{
		Profile:   vehicle.MustProfile(vehicle.ArduCopter),
		Plan:      mission.NewStraight(50, 10),
		Strategy:  strategy,
		WindowSec: 8,
		Seed:      seed,
		MaxSec:    200,
	}
}

func TestAttackFreeMissionSucceeds(t *testing.T) {
	for _, strat := range []core.Strategy{core.StrategyNone, core.StrategyDeLorean, core.StrategyLQRO} {
		t.Run(strat.String(), func(t *testing.T) {
			res, err := Run(baseCfg(strat, 1))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.Success {
				t.Errorf("attack-free mission failed: %+v", res)
			}
			if res.RecoveryActivations != 0 {
				t.Errorf("gratuitous recovery in attack-free mission: %d", res.RecoveryActivations)
			}
		})
	}
}

func TestAttackFreeWithWind(t *testing.T) {
	cfg := baseCfg(core.StrategyDeLorean, 2)
	cfg.WindMean, cfg.WindGust = 2.0, 0.8
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Success {
		t.Errorf("windy attack-free mission failed: %+v", res)
	}
	if res.RecoveryActivations != 0 {
		t.Errorf("wind triggered recovery: %d activations", res.RecoveryActivations)
	}
}

func TestGPSAttackDeLoreanRecovers(t *testing.T) {
	cfg := baseCfg(core.StrategyDeLorean, 3)
	rng := rand.New(rand.NewSource(99))
	sda := attack.New(rng, attack.DefaultParams(), sensors.NewTypeSet(sensors.GPS), 15, 35)
	cfg.Attacks = attack.NewSchedule(sda)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.DiagnosisRanDuringAttack {
		t.Fatal("diagnosis never ran during the attack")
	}
	if res.DiagnosedDuringAttack != sensors.NewTypeSet(sensors.GPS) {
		t.Errorf("diagnosis = %v, want {GPS}", res.DiagnosedDuringAttack)
	}
	if res.RecoveryActivations == 0 {
		t.Error("recovery never activated")
	}
	if !res.Success {
		t.Errorf("DeLorean failed to recover from single GPS SDA: %+v", res)
	}
}

func TestGPSAttackUndefendedDisrupted(t *testing.T) {
	cfg := baseCfg(core.StrategyNone, 3)
	rng := rand.New(rand.NewSource(99))
	sda := attack.New(rng, attack.DefaultParams(), sensors.NewTypeSet(sensors.GPS), 15, 200)
	cfg.Attacks = attack.NewSchedule(sda)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// A persistent full-mission GPS spoof with no defense must disrupt the
	// mission: crash, stall, or a badly off-target landing.
	if res.Success {
		t.Errorf("undefended drone succeeded under persistent GPS spoof: %+v", res)
	}
}

func TestMultiSensorAttackLQROvsDeLorean(t *testing.T) {
	targets := sensors.NewTypeSet(sensors.GPS, sensors.Accel)
	mk := func(strat core.Strategy) Result {
		cfg := baseCfg(strat, 4)
		rng := rand.New(rand.NewSource(123))
		sda := attack.New(rng, attack.DefaultParams(), targets, 15, 35)
		cfg.Attacks = attack.NewSchedule(sda)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(%v): %v", strat, err)
		}
		return res
	}
	dl := mk(core.StrategyDeLorean)
	lo := mk(core.StrategyLQRO)
	if dl.Crashed {
		t.Errorf("DeLorean crashed: %+v", dl)
	}
	if lo.Crashed {
		t.Errorf("LQR-O crashed: %+v", lo)
	}
	if !dl.Success {
		t.Errorf("DeLorean failed 2-sensor SDA: %+v", dl)
	}
}

func TestGyroAttackDiagnosed(t *testing.T) {
	cfg := baseCfg(core.StrategyDeLorean, 5)
	rng := rand.New(rand.NewSource(7))
	sda := attack.New(rng, attack.DefaultParams(), sensors.NewTypeSet(sensors.Gyro), 15, 30)
	cfg.Attacks = attack.NewSchedule(sda)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.DiagnosedDuringAttack.Has(sensors.Gyro) {
		t.Errorf("gyro attack not diagnosed: %v", res.DiagnosedDuringAttack)
	}
	if res.Crashed {
		t.Errorf("DeLorean crashed under gyro SDA: %+v", res)
	}
}

func TestRoverMissionWithAttack(t *testing.T) {
	cfg := Config{
		Profile:   vehicle.MustProfile(vehicle.AionR1),
		Plan:      mission.NewPolygon(mission.Polygon2, 4, 25, 0),
		Strategy:  core.StrategyDeLorean,
		WindowSec: 8,
		Seed:      6,
		MaxSec:    300,
	}
	rng := rand.New(rand.NewSource(11))
	sda := attack.New(rng, attack.DefaultParams(), sensors.NewTypeSet(sensors.GPS), 20, 40)
	cfg.Attacks = attack.NewSchedule(sda)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Success {
		t.Errorf("rover mission failed: %+v", res)
	}
}

func TestTraceRecording(t *testing.T) {
	cfg := baseCfg(core.StrategyDeLorean, 8)
	cfg.TraceEvery = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].T <= res.Trace[i-1].T {
			t.Fatal("trace not time-ordered")
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(baseCfg(core.StrategyDeLorean, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseCfg(core.StrategyDeLorean, 42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.FinalDistance != b.FinalDistance || a.Success != b.Success {
		t.Errorf("same seed, different outcomes: %+v vs %+v", a, b)
	}
}
