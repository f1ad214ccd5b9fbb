package core_test

// Allocation budget for the framework tick: after the checkpoint ring and
// workspaces have warmed up (two full recording windows), neither a quiet
// tick nor a recovery tick may allocate at all.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

func TestTickSteadyStateZeroAlloc(t *testing.T) {
	fw, meas, target := benchFramework(t, vehicle.ArduCopter)
	tick := 0
	// Warm: two full 5 s windows (500 ticks each) grow both checkpoint
	// buffers to capacity and exercise one swap rotation.
	for ; tick < 1100; tick++ {
		fw.Tick(float64(tick)*0.01, meas, target)
	}
	if fw.Recovering() {
		t.Fatal("quiet warmup entered recovery; benchmark preconditions broken")
	}
	if n := testing.AllocsPerRun(300, func() {
		fw.Tick(float64(tick)*0.01, meas, target)
		tick++
	}); n != 0 {
		t.Errorf("steady-state Tick allocates %v per run, want 0", n)
	}
}

// TestTickRecoveryZeroAlloc covers the recovery tick of a GPS-spoof
// DeLorean episode past its first second, where the isolated sensors are
// re-validated every tick: it must not allocate either.
func TestTickRecoveryZeroAlloc(t *testing.T) {
	fw, clean, target := benchFramework(t, vehicle.ArduCopter)
	tick := 0
	for ; tick < 1100; tick++ {
		fw.Tick(float64(tick)*0.01, clean, target)
	}
	spoofed := clean
	spoofed[sensors.SX] += 30
	spoofed[sensors.SVX] += 1
	for start := tick; !fw.Recovering(); tick++ {
		if tick-start > 200 {
			t.Fatal("GPS spoof did not engage recovery")
		}
		fw.Tick(float64(tick)*0.01, spoofed, target)
	}
	// Re-validation starts one second into the episode.
	for end := tick + 150; tick < end; tick++ {
		fw.Tick(float64(tick)*0.01, spoofed, target)
	}
	if fw.Mode() != core.ModeRevalidating {
		t.Fatalf("mode %v one second into the episode, want %v", fw.Mode(), core.ModeRevalidating)
	}
	if n := testing.AllocsPerRun(200, func() {
		fw.Tick(float64(tick)*0.01, spoofed, target)
		tick++
	}); n != 0 {
		t.Errorf("recovery Tick allocates %v per run, want 0", n)
	}
	if fw.Mode() != core.ModeRevalidating {
		t.Errorf("episode left re-validation during the measurement (mode %v)", fw.Mode())
	}
}
