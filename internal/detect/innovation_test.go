package detect

import (
	"math/rand"
	"testing"

	"repro/internal/sensors"
)

func innovThresh() Thresholds {
	var t Thresholds
	t[sensors.SX] = 3
	return t
}

// feedNoise runs n warmup/benign ticks with Gaussian residual noise.
func feedNoise(d *Innovation, rng *rand.Rand, sigma float64, n int) {
	var pred, obs sensors.PhysState
	for i := 0; i < n; i++ {
		obs[sensors.SX] = sigma * rng.NormFloat64()
		d.Update(&pred, &obs)
	}
}

func TestInnovationQuietUnderNoise(t *testing.T) {
	d := NewInnovation(innovThresh())
	rng := rand.New(rand.NewSource(1))
	feedNoise(d, rng, 0.3, 2000)
	if d.Alert() {
		t.Error("alerted on pure noise")
	}
}

func TestInnovationCatchesBias(t *testing.T) {
	d := NewInnovation(innovThresh())
	rng := rand.New(rand.NewSource(2))
	feedNoise(d, rng, 0.3, 500)
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 5 // ≫ learned σ
	if !d.Update(&pred, &obs) {
		t.Error("large residual not detected after warmup")
	}
}

func TestInnovationWarmupSuppressesAlerts(t *testing.T) {
	d := NewInnovation(innovThresh())
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 50
	for i := 0; i < d.Warmup; i++ {
		if d.Update(&pred, &obs) {
			t.Fatal("alert during warmup")
		}
	}
}

func TestInnovationCUSUMCatchesStealthy(t *testing.T) {
	d := NewInnovation(innovThresh())
	rng := rand.New(rand.NewSource(3))
	feedNoise(d, rng, 0.3, 500)
	// Persistent bias of ~3σ: below the 6σ gate, caught by accumulation.
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 0.9
	var alerted bool
	for i := 0; i < 500; i++ {
		if d.Update(&pred, &obs) {
			alerted = true
			break
		}
	}
	if !alerted {
		t.Error("CUSUM missed a persistent 3σ bias")
	}
}

func TestInnovationNoAdaptationUnderAttack(t *testing.T) {
	// The noise model must not learn from clearly anomalous residuals —
	// otherwise a patient attacker could desensitize the detector.
	d := NewInnovation(innovThresh())
	rng := rand.New(rand.NewSource(4))
	feedNoise(d, rng, 0.3, 500)
	sigmaBefore := d.varEst[sensors.SX]
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 10
	for i := 0; i < 200; i++ {
		d.Update(&pred, &obs)
	}
	if d.varEst[sensors.SX] > 2*sigmaBefore {
		t.Errorf("noise model inflated under attack: %v → %v", sigmaBefore, d.varEst[sensors.SX])
	}
}

func TestInnovationResetKeepsNoiseModel(t *testing.T) {
	d := NewInnovation(innovThresh())
	rng := rand.New(rand.NewSource(5))
	feedNoise(d, rng, 0.3, 600)
	learned := d.varEst[sensors.SX]
	d.Reset()
	if d.varEst[sensors.SX] != learned {
		t.Error("Reset discarded the learned noise model")
	}
	if d.Alert() {
		t.Error("Reset should clear the alert")
	}
}

func TestInnovationSuspicious(t *testing.T) {
	d := NewInnovation(innovThresh())
	rng := rand.New(rand.NewSource(6))
	feedNoise(d, rng, 0.3, 500)
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 0.9
	var suspicious bool
	for i := 0; i < 300 && !d.Alert(); i++ {
		d.Update(&pred, &obs)
		if d.Suspicious() && !d.Alert() {
			suspicious = true
		}
	}
	if !suspicious {
		t.Error("suspicion should precede the alert")
	}
}
