package diagnosis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fg"
	"repro/internal/sensors"
)

// uniformDelta returns a Delta with the same threshold on every channel.
func uniformDelta(v float64) Delta {
	var d Delta
	for i := range d {
		d[i] = v
	}
	return d
}

// observePair feeds n identical (predicted, observed) steps.
func observePair(d Diagnoser, predicted, observed sensors.PhysState, n int) {
	for i := 0; i < n; i++ {
		d.Observe(&predicted, &observed)
	}
}

func TestDeLoreanFlagsAttackedSensor(t *testing.T) {
	d := NewDeLorean(uniformDelta(1))
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 10 // GPS x error of 10 ≫ δ=1
	observePair(d, pred, obs, 2)
	got := d.Diagnose()
	if got != sensors.NewTypeSet(sensors.GPS) {
		t.Errorf("Diagnose = %v, want {GPS}", got)
	}
}

func TestDeLoreanMultiSensor(t *testing.T) {
	d := NewDeLorean(uniformDelta(1))
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 10
	obs[sensors.SWRoll] = 5
	obs[sensors.SBaroAlt] = 9
	observePair(d, pred, obs, 2)
	want := sensors.NewTypeSet(sensors.GPS, sensors.Gyro, sensors.Baro)
	if got := d.Diagnose(); got != want {
		t.Errorf("Diagnose = %v, want %v", got, want)
	}
}

func TestDeLoreanQuietStatesNotFlagged(t *testing.T) {
	d := NewDeLorean(uniformDelta(1))
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 0.5 // below δ
	observePair(d, pred, obs, 4)
	if got := d.Diagnose(); got.Len() != 0 {
		t.Errorf("Diagnose = %v, want empty", got)
	}
}

func TestDeLoreanTransientMasked(t *testing.T) {
	// A single-step spike (e.g. a wind transient) must not flag: Eq. 2
	// requires BOTH consecutive errors above δ.
	d := NewDeLorean(uniformDelta(1))
	var pred, quiet, spike sensors.PhysState
	spike[sensors.SX] = 10
	d.Observe(&pred, &quiet)
	d.Observe(&pred, &spike) // e_{t−1} quiet, e_t inflated
	if got := d.Diagnose(); got.Len() != 0 {
		t.Errorf("transient flagged: %v", got)
	}
	// Once the inflation persists for a second step, it is an attack.
	d.Observe(&pred, &spike)
	if got := d.Diagnose(); !got.Has(sensors.GPS) {
		t.Errorf("persistent inflation not flagged: %v", got)
	}
}

func TestDeLoreanInsufficientHistory(t *testing.T) {
	d := NewDeLorean(uniformDelta(1))
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 10
	d.Observe(&pred, &obs)
	if got := d.Diagnose(); got.Len() != 0 {
		t.Errorf("one observation should not diagnose: %v", got)
	}
}

func TestDeLoreanZeroDeltaChannelSkipped(t *testing.T) {
	// Rover-style Delta: altitude channels unmonitored.
	delta := uniformDelta(1)
	delta[sensors.SBaroAlt] = 0
	d := NewDeLorean(delta)
	var pred, obs sensors.PhysState
	obs[sensors.SBaroAlt] = 100
	observePair(d, pred, obs, 2)
	if got := d.Diagnose(); got.Has(sensors.Baro) {
		t.Errorf("unmonitored channel flagged: %v", got)
	}
}

func TestDeLoreanReset(t *testing.T) {
	d := NewDeLorean(uniformDelta(1))
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 10
	observePair(d, pred, obs, 2)
	d.Reset()
	if got := d.Diagnose(); got.Len() != 0 {
		t.Errorf("after reset Diagnose = %v, want empty", got)
	}
}

func TestRAFlagsOnSingleStep(t *testing.T) {
	r := NewRA(EKFRA, uniformDelta(1))
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 10
	r.Observe(&pred, &obs)
	if got := r.Diagnose(); !got.Has(sensors.GPS) {
		t.Errorf("RA should flag on one step: %v", got)
	}
}

func TestRAFlagsTransients(t *testing.T) {
	// The RA structural weakness: a one-step transient IS flagged —
	// exactly what DeLorean masks.
	r := NewRA(SaviorRA, uniformDelta(1))
	var pred, quiet, spike sensors.PhysState
	spike[sensors.SVY] = 10
	r.Observe(&pred, &quiet)
	r.Observe(&pred, &spike)
	if got := r.Diagnose(); !got.Has(sensors.GPS) {
		t.Errorf("RA should flag the transient: %v", got)
	}
}

func TestRANoObservationsEmpty(t *testing.T) {
	r := NewRA(PIDPiperRA, uniformDelta(1))
	if got := r.Diagnose(); got.Len() != 0 {
		t.Errorf("no observations should diagnose empty: %v", got)
	}
}

func TestRAScalesDiffer(t *testing.T) {
	// Savior (0.9×δ) flags a residual that PID-Piper (1.25×δ) tolerates.
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 1.1 // between 0.9 and 1.25
	sav := NewRA(SaviorRA, uniformDelta(1))
	pid := NewRA(PIDPiperRA, uniformDelta(1))
	sav.Observe(&pred, &obs)
	pid.Observe(&pred, &obs)
	if !sav.Diagnose().Has(sensors.GPS) {
		t.Error("Savior-RA should flag at 1.1×δ")
	}
	if pid.Diagnose().Has(sensors.GPS) {
		t.Error("PID-Piper-RA should tolerate 1.1×δ")
	}
}

func TestRAReset(t *testing.T) {
	r := NewRA(EKFRA, uniformDelta(1))
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 10
	r.Observe(&pred, &obs)
	r.Reset()
	if got := r.Diagnose(); got.Len() != 0 {
		t.Errorf("after reset Diagnose = %v", got)
	}
}

func TestNames(t *testing.T) {
	if NewDeLorean(Delta{}).Name() != "DeLorean" {
		t.Error("DeLorean name wrong")
	}
	tests := []struct {
		kind RAKind
		want string
	}{
		{kind: SaviorRA, want: "Savior-RA"},
		{kind: PIDPiperRA, want: "PID-Piper-RA"},
		{kind: EKFRA, want: "EKF-RA"},
	}
	for _, tt := range tests {
		if got := NewRA(tt.kind, Delta{}).Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
	if RAKind(9).String() != "RA" {
		t.Error("unknown RAKind should stringify to RA")
	}
}

// Property: diagnosis monotonicity — adding error inflation to more
// channels never shrinks the flagged set.
func TestPropertyDiagnosisMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		delta := uniformDelta(1)
		var pred, obs1 sensors.PhysState
		// Random base inflation on a few channels (kept below π so angular
		// channels do not wrap).
		for i := range obs1 {
			if rng.Float64() < 0.3 {
				obs1[i] = 2 + rng.Float64()
			}
		}
		// obs2 adds inflation to additional channels only.
		obs2 := obs1
		for i := range obs2 {
			if obs2[i] == 0 && rng.Float64() < 0.3 {
				obs2[i] = 2 + rng.Float64()
			}
		}
		d1 := NewDeLorean(delta)
		observePair(d1, pred, obs1, 2)
		d2 := NewDeLorean(delta)
		observePair(d2, pred, obs2, 2)
		s1, s2 := d1.Diagnose(), d2.Diagnose()
		for _, typ := range s1.List() {
			if !s2.Has(typ) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a diagnosis never flags a sensor whose channels are all below
// δ on both steps.
func TestPropertyNoFlagBelowDelta(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		delta := uniformDelta(2)
		var pred, obs sensors.PhysState
		for i := range obs {
			obs[i] = rng.Float64() * 1.9 // strictly below δ
		}
		d := NewDeLorean(delta)
		observePair(d, pred, obs, 2)
		return d.Diagnose().Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// rebuiltVerdicts is a verbatim transcription of the rebuild-per-call
// diagnosis the cached-graph form replaced: one fresh factor graph per
// sensor per call, value-capturing threshold factors. It is the
// equivalence oracle proving the evidence-cell graphs are bit-exact.
func rebuiltVerdicts(delta Delta, ePrev, eCur sensors.PhysState) []SensorVerdict {
	var out []SensorVerdict
	for _, typ := range sensors.AllTypes() {
		graph := fg.New()
		nvars := 0
		for _, idx := range sensors.StatesOf(typ) {
			if delta[idx] <= 0 {
				continue
			}
			v := graph.AddVariable(idx.String())
			graph.AddFactor("f_"+idx.String(), fg.ThresholdFactor(ePrev[idx], eCur[idx], delta[idx]), v)
			nvars++
		}
		if nvars == 0 {
			continue
		}
		verdict := SensorVerdict{Sensor: typ}
		for _, p := range graph.Marginals() {
			if p > verdict.MaxMarginal {
				verdict.MaxMarginal = p
			}
			if p > 0.5 {
				verdict.Malicious = true
			}
		}
		out = append(out, verdict)
	}
	return out
}

// TestDeLoreanCachedGraphsMatchRebuilt drives random evidence through the
// cached-graph diagnoser and the rebuild-per-call oracle and requires
// bit-identical marginals (==, not tolerance: same factor values and same
// enumeration order must give the same floats).
func TestDeLoreanCachedGraphsMatchRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	delta := uniformDelta(1)
	delta[sensors.SBaroAlt] = 0 // keep one unmonitored channel in play
	d := NewDeLorean(delta)
	var prev sensors.PhysState
	for step := 0; step < 50; step++ {
		var obs sensors.PhysState
		for i := range obs {
			if rng.Float64() < 0.4 {
				obs[i] = rng.Float64() * 3
			}
		}
		d.Observe(&sensors.PhysState{}, &obs)
		if step == 0 {
			prev = obs
			continue
		}
		got := d.Diagnose()
		want := rebuiltVerdicts(delta, prev, obs)
		verdicts := d.Verdicts()
		if len(verdicts) != len(want) {
			t.Fatalf("step %d: %d verdicts, oracle has %d", step, len(verdicts), len(want))
		}
		for i, w := range want {
			g := verdicts[i]
			if g.Sensor != w.Sensor || g.Malicious != w.Malicious || g.MaxMarginal != w.MaxMarginal {
				t.Fatalf("step %d sensor %v: got %+v, oracle %+v", step, w.Sensor, g, w)
			}
			if got.Has(w.Sensor) != w.Malicious {
				t.Fatalf("step %d sensor %v: flagged=%v, oracle malicious=%v",
					step, w.Sensor, got.Has(w.Sensor), w.Malicious)
			}
		}
		prev = obs
	}
}

// TestDeLoreanDiagnoseZeroAlloc pins Diagnose's steady state at zero
// allocations, with a sensor flagged: the returned set is a value, and
// DeLorean's graphs, their scratch, the marginal buffer and the verdict
// buffer are all reused. The RA baseline's Diagnose is held to the same.
func TestDeLoreanDiagnoseZeroAlloc(t *testing.T) {
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 10
	for _, d := range []Diagnoser{NewDeLorean(uniformDelta(1)), NewRA(EKFRA, uniformDelta(1))} {
		observePair(d, pred, obs, 2)
		if got := d.Diagnose(); got != sensors.NewTypeSet(sensors.GPS) { // also warms the enumeration scratch
			t.Fatalf("%T: Diagnose = %v, want {GPS}", d, got)
		}
		if n := testing.AllocsPerRun(100, func() { d.Diagnose() }); n != 0 {
			t.Errorf("%T: Diagnose allocates %v/op in steady state, want 0", d, n)
		}
	}
}

// BenchmarkDeLoreanDiagnose is the diagnosis steady state: cached graphs,
// evidence-cell rewrite, shared-buffer marginals.
func BenchmarkDeLoreanDiagnose(b *testing.B) {
	d := NewDeLorean(uniformDelta(1))
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 10
	obs[sensors.SWRoll] = 5
	observePair(d, pred, obs, 2)
	d.Diagnose()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Diagnose()
	}
}
