package detect

import (
	"testing"

	"repro/internal/sensors"
)

func mkThresh() Thresholds {
	var t Thresholds
	t[sensors.SX] = 2
	return t
}

func TestResidualAlertsAboveThreshold(t *testing.T) {
	d := NewResidual(mkThresh())
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 5 // residual 5 > 2
	if !d.Update(&pred, &obs) {
		t.Error("expected alert for residual above threshold")
	}
	if !d.Alert() {
		t.Error("Alert() should be latched")
	}
}

func TestResidualQuietBelowThreshold(t *testing.T) {
	d := NewResidual(mkThresh())
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 0.5
	if d.Update(&pred, &obs) {
		t.Error("no alert expected for small residual")
	}
}

func TestResidualIgnoresUnmonitoredStates(t *testing.T) {
	d := NewResidual(mkThresh())
	var pred, obs sensors.PhysState
	obs[sensors.SMagX] = 100 // not monitored
	if d.Update(&pred, &obs) {
		t.Error("unmonitored state should not alert")
	}
}

func TestResidualCUSUMCatchesStealthyBias(t *testing.T) {
	d := NewResidual(mkThresh())
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 1.7 // below instant threshold 2, above drift 1.4
	var alerted bool
	var ticks int
	for i := 0; i < 300; i++ {
		if d.Update(&pred, &obs) {
			alerted = true
			ticks = i
			break
		}
	}
	if !alerted {
		t.Fatal("CUSUM never caught persistent sub-threshold bias")
	}
	if ticks == 0 {
		t.Error("CUSUM fired instantly; should take accumulation time")
	}
}

func TestResidualCUSUMIgnoresNoise(t *testing.T) {
	d := NewResidual(mkThresh())
	var pred, obs sensors.PhysState
	// Residual well below the drift never accumulates.
	obs[sensors.SX] = 0.3
	for i := 0; i < 1000; i++ {
		if d.Update(&pred, &obs) {
			t.Fatal("small residual should never alert")
		}
	}
}

func TestResidualAlertClearsAfterHold(t *testing.T) {
	d := NewResidual(mkThresh())
	d.HoldTicks = 5
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 10
	d.Update(&pred, &obs)
	obs[sensors.SX] = 0
	for i := 0; i < 4; i++ {
		if !d.Update(&pred, &obs) {
			t.Fatalf("alert dropped before hold expired at tick %d", i)
		}
	}
	if d.Update(&pred, &obs) {
		t.Error("alert should clear after hold ticks")
	}
}

func TestResidualReset(t *testing.T) {
	d := NewResidual(mkThresh())
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 10
	d.Update(&pred, &obs)
	d.Reset()
	if d.Alert() {
		t.Error("Reset should clear alert")
	}
	// With its accumulators cleared, a reset detector takes as many ticks
	// of a sub-threshold bias to alert as a fresh one.
	ticksToAlert := func(d *Residual) int {
		var pred, obs sensors.PhysState
		obs[sensors.SX] = 1.7
		for i := 1; i <= 300; i++ {
			if d.Update(&pred, &obs) {
				return i
			}
		}
		return -1
	}
	if got, want := ticksToAlert(d), ticksToAlert(NewResidual(mkThresh())); got != want || want < 2 {
		t.Errorf("reset detector alerts after %d ticks, a fresh one after %d", got, want)
	}
}

func TestForcedAlert(t *testing.T) {
	d := &ForcedAlert{}
	if d.Update(&sensors.PhysState{}, &sensors.PhysState{}) {
		t.Error("forced alert off should not alert")
	}
	d.On = true
	if !d.Alert() {
		t.Error("forced alert on should alert")
	}
	d.Reset()
	if d.Alert() {
		t.Error("Reset should clear forced alert")
	}
}

func TestDefaultThresholdsMonitorPosition(t *testing.T) {
	th := DefaultThresholds()
	if th[sensors.SX] <= 0 || th[sensors.SZ] <= 0 {
		t.Error("default thresholds should monitor position")
	}
	if th[sensors.SMagX] != 0 {
		t.Error("magnetometer field states should not be residual-monitored by default")
	}
}

func TestAngularResidualWraps(t *testing.T) {
	var th Thresholds
	th[sensors.SYaw] = 0.5
	d := NewResidual(th)
	var pred, obs sensors.PhysState
	pred[sensors.SYaw] = 3.1
	obs[sensors.SYaw] = -3.1 // only ~0.08 rad apart across the wrap
	if d.Update(&pred, &obs) {
		t.Error("wrapped yaw residual should not alert")
	}
}

func TestTriggerAttributionInstant(t *testing.T) {
	d := NewResidual(mkThresh())
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 5 // residual 5 > 2: instantaneous trip
	d.Update(&pred, &obs)
	trig := d.Trigger()
	if trig.Mechanism != TriggerInstant || trig.Channel != sensors.SX {
		t.Errorf("trigger = %+v, want inst on x", trig)
	}
	if got := trig.String(); got != "inst:x" {
		t.Errorf("trigger string = %q, want \"inst:x\"", got)
	}
}

func TestTriggerAttributionCUSUM(t *testing.T) {
	d := NewResidual(mkThresh())
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 1.7 // sub-threshold persistent bias
	for i := 0; i < 300 && !d.Update(&pred, &obs); i++ {
	}
	if !d.Alert() {
		t.Fatal("CUSUM never alerted")
	}
	trig := d.Trigger()
	if trig.Mechanism != TriggerCUSUM || trig.Channel != sensors.SX {
		t.Errorf("trigger = %+v, want cusum on x", trig)
	}
	if got := trig.String(); got != "cusum:x" {
		t.Errorf("trigger string = %q, want \"cusum:x\"", got)
	}
}

func TestTriggerLatchesFirstEpisodeCause(t *testing.T) {
	d := NewResidual(mkThresh())
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 5
	d.Update(&pred, &obs)
	// While the alert stays latched, later (different) trips must not
	// overwrite the episode's attribution.
	var obs2 sensors.PhysState
	obs2[sensors.SX] = 1.7
	for i := 0; i < 50; i++ {
		d.Update(&pred, &obs2)
	}
	if trig := d.Trigger(); trig.Mechanism != TriggerInstant {
		t.Errorf("attribution overwritten mid-episode: %+v", trig)
	}
}

func TestTriggerZeroValueAndReset(t *testing.T) {
	d := NewResidual(mkThresh())
	if got := d.Trigger().String(); got != "" {
		t.Errorf("zero trigger renders %q, want empty", got)
	}
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 5
	d.Update(&pred, &obs)
	d.Reset()
	if trig := d.Trigger(); trig != (Trigger{}) {
		t.Errorf("Reset left trigger %+v", trig)
	}
}
