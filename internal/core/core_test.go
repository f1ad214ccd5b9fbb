package core

import (
	"math/rand"
	"testing"

	"repro/internal/detect"
	"repro/internal/diagnosis"
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

func newFW(t *testing.T, strategy Strategy) *Pipeline {
	t.Helper()
	prof := vehicle.MustProfile(vehicle.ArduCopter)
	fw, err := New(Config{
		Profile:   prof,
		DT:        0.01,
		Delta:     DefaultDelta(prof),
		WindowSec: 5,
	}, strategy)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fw.Init(vehicle.State{Z: 10})
	return fw
}

// hoverMeas returns a truthful PS vector for a hovering drone at z.
func hoverMeas(z float64) sensors.PhysState {
	s := vehicle.State{Z: z}
	return sensors.TruePhysState(s, [3]float64{}, sensors.BodyField(0))
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Profile: vehicle.MustProfile(vehicle.Pixhawk)}, StrategyDeLorean); err == nil {
		t.Error("expected error for zero DT")
	}
}

func TestStrategyString(t *testing.T) {
	tests := []struct {
		give Strategy
		want string
	}{
		{give: StrategyNone, want: "None"},
		{give: StrategyDeLorean, want: "DeLorean"},
		{give: StrategyLQRO, want: "LQR-O"},
		{give: StrategySSR, want: "SSR"},
		{give: StrategyPIDPiper, want: "PID-Piper"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
	if Strategy(42).String() == "" {
		t.Error("unknown strategy should stringify")
	}
}

func TestQuietTicksNoRecovery(t *testing.T) {
	fw := newFW(t, StrategyDeLorean)
	target := mission.Waypoint{Z: 10}
	meas := hoverMeas(10)
	for i := 0; i < 500; i++ {
		fw.Tick(float64(i)*0.01, meas, target)
	}
	if fw.Recovering() {
		t.Error("quiet hover entered recovery")
	}
	if fw.RecoveryActivations() != 0 {
		t.Errorf("activations = %d", fw.RecoveryActivations())
	}
}

func TestGPSBiasTriggersTargetedRecovery(t *testing.T) {
	fw := newFW(t, StrategyDeLorean)
	target := mission.Waypoint{Z: 10}
	clean := hoverMeas(10)
	// Build checkpoint history first.
	for i := 0; i < 600; i++ {
		fw.Tick(float64(i)*0.01, clean, target)
	}
	// Inject a 30 m GPS bias.
	spoofed := clean
	spoofed[sensors.SX] += 30
	spoofed[sensors.SVX] += 1
	for i := 600; i < 700; i++ {
		fw.Tick(float64(i)*0.01, spoofed, target)
	}
	if !fw.Recovering() {
		t.Fatal("GPS bias did not trigger recovery")
	}
	if got := fw.Compromised(); got != sensors.NewTypeSet(sensors.GPS) {
		t.Errorf("compromised = %v, want {GPS}", got)
	}
	// The believed x must NOT follow the spoof.
	if bx := fw.Believed().X; bx > 15 {
		t.Errorf("believed x = %v, dragged by spoof", bx)
	}
}

func TestLQROIsolatesEverything(t *testing.T) {
	fw := newFW(t, StrategyLQRO)
	target := mission.Waypoint{Z: 10}
	clean := hoverMeas(10)
	for i := 0; i < 600; i++ {
		fw.Tick(float64(i)*0.01, clean, target)
	}
	spoofed := clean
	spoofed[sensors.SX] += 30
	for i := 600; i < 700; i++ {
		fw.Tick(float64(i)*0.01, spoofed, target)
	}
	if !fw.Recovering() {
		t.Fatal("LQR-O did not enter recovery")
	}
	if got := fw.Compromised(); !got.Has(sensors.GPS) {
		t.Errorf("diagnosis telemetry = %v", got)
	}
}

func TestForcedAlertMaskedWhenNoAttack(t *testing.T) {
	// §6.1: a detector false alarm with quiet physical states must be
	// masked by diagnosis — no recovery activation.
	prof := vehicle.MustProfile(vehicle.ArduCopter)
	forced := &detect.ForcedAlert{}
	fw, err := New(Config{
		Profile:   prof,
		DT:        0.01,
		Delta:     DefaultDelta(prof),
		WindowSec: 5,
		Detector:  forced,
	}, StrategyDeLorean)
	if err != nil {
		t.Fatal(err)
	}
	fw.Init(vehicle.State{Z: 10})
	target := mission.Waypoint{Z: 10}
	meas := hoverMeas(10)
	for i := 0; i < 300; i++ {
		fw.Tick(float64(i)*0.01, meas, target)
	}
	forced.On = true // false alarm with no physical anomaly
	for i := 300; i < 500; i++ {
		fw.Tick(float64(i)*0.01, meas, target)
	}
	if fw.RecoveryActivations() != 0 {
		t.Errorf("gratuitous recovery despite quiet states: %d", fw.RecoveryActivations())
	}
	if !fw.DiagnosisRan() {
		t.Error("diagnosis should have run on the forced alert")
	}
	if got := fw.Compromised(); got.Len() != 0 {
		t.Errorf("diagnosis flagged sensors without attack: %v", got)
	}
}

func TestRABaselineNotMasked(t *testing.T) {
	// The same forced alarm with an RA diagnoser is more FP-prone: a
	// single noisy residual spike flags a sensor. Verify the plumbing
	// dispatches the fused reference to RA diagnosers.
	prof := vehicle.MustProfile(vehicle.ArduCopter)
	delta := DefaultDelta(prof)
	ra := diagnosis.NewRA(diagnosis.SaviorRA, delta)
	if ra.Reference() != diagnosis.RefFused {
		t.Fatal("RA should use the fused reference")
	}
}

func TestRecoveryExitsAfterAttackEnds(t *testing.T) {
	fw := newFW(t, StrategyDeLorean)
	target := mission.Waypoint{Z: 10}
	clean := hoverMeas(10)
	tick := 0
	step := func(meas sensors.PhysState, n int) {
		for i := 0; i < n; i++ {
			fw.Tick(float64(tick)*0.01, meas, target)
			tick++
		}
	}
	step(clean, 600)
	spoofed := clean
	spoofed[sensors.SX] += 30
	step(spoofed, 800) // 8 s attack
	if !fw.Recovering() {
		t.Fatal("did not enter recovery")
	}
	step(clean, 400) // attack ends; 4 s to notice
	if fw.Recovering() {
		t.Error("recovery did not exit after the attack subsided")
	}
}

func TestDefenseOverheadAccounting(t *testing.T) {
	fw := newFW(t, StrategyDeLorean)
	target := mission.Waypoint{Z: 10}
	meas := hoverMeas(10)
	for i := 0; i < 100; i++ {
		fw.Tick(float64(i)*0.01, meas, target)
	}
	defNS, totNS, ticks := fw.Overhead()
	if ticks != 100 {
		t.Errorf("ticks = %d, want 100", ticks)
	}
	if defNS <= 0 {
		t.Error("defense cost not accounted")
	}
	if totNS <= defNS {
		t.Errorf("total cost %d not greater than defense cost %d", totNS, defNS)
	}
	// This synthetic hover keeps the detector alerted (the zero-input
	// shadow model free-falls away from the hovering measurement), so
	// diagnosis is charged nearly every tick — the defense share sits
	// well above the steady-state floor but must stay below the alerted
	// ceiling. The mission-level Table 3 band is asserted by the
	// experiments. Identical tick sequences must charge identical costs
	// (the accounting is a model, not a measurement).
	if share := float64(defNS) / float64(totNS); share <= 0.02 || share >= 0.6 {
		t.Errorf("defense share = %.3f, want (0.02, 0.6)", share)
	}
	fw2 := newFW(t, StrategyDeLorean)
	for i := 0; i < 100; i++ {
		fw2.Tick(float64(i)*0.01, meas, target)
	}
	d2, t2, _ := fw2.Overhead()
	if d2 != defNS || t2 != totNS {
		t.Errorf("cost model not deterministic: (%d,%d) vs (%d,%d)", d2, t2, defNS, totNS)
	}
	if fw.MemoryBytes() <= 0 {
		t.Error("checkpoint memory not accounted")
	}
}

func TestCalibrateDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]sensors.PhysState, 2000)
	for i := range samples {
		for j := range samples[i] {
			samples[i][j] = 0.01 * rng.NormFloat64() * float64(j+1)
		}
	}
	delta := CalibrateDelta(samples, 3)
	for _, idx := range sensors.AllStates() {
		if delta[idx] <= 0 {
			t.Errorf("delta[%v] = %v, want positive", idx, delta[idx])
		}
		if delta[idx] < floorFor(idx) {
			t.Errorf("delta[%v] below floor", idx)
		}
	}
}

func TestCalibrateDeltaEmpty(t *testing.T) {
	if got := CalibrateDelta(nil, 3); got != (diagnosis.Delta{}) {
		t.Error("empty calibration should return zero delta")
	}
}

func TestDefaultDeltaRoverDropsAltitudeChannels(t *testing.T) {
	d := DefaultDelta(vehicle.MustProfile(vehicle.AionR1))
	if d[sensors.SZ] != 0 || d[sensors.SRoll] != 0 {
		t.Error("rover delta should not monitor altitude/attitude channels")
	}
	if d[sensors.SX] <= 0 || d[sensors.SYaw] <= 0 {
		t.Error("rover delta should monitor planar channels")
	}
}

func TestStrategyAccessor(t *testing.T) {
	fw := newFW(t, StrategySSR)
	if fw.Strategy() != StrategySSR {
		t.Error("Strategy accessor wrong")
	}
}
