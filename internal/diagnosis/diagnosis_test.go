package diagnosis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floats"
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

// Outcomes of a diagnosis variable in the factor-graph oracle.
const (
	benign = iota + 1
	malicious
)

// oracleVerdicts is the reference for DeLorean's closed form: each
// sensor's factor graph evaluated by exact enumeration, transcribed from
// the generic factor-graph engine the diagnoser used to run (its score
// and compute), restricted to this graph. Each monitored state is a
// variable with a 0.5 prior and one Eq. 2 threshold factor; the 2ⁿ
// assignments are walked in lexicographic order (benign before
// malicious), a score stops at an exactly zero product, and a graph
// whose every assignment scores zero falls back to the priors.
func oracleVerdicts(delta Delta, ePrev, eCur *sensors.PhysState) []SensorVerdict {
	const prior = 0.5
	var out []SensorVerdict
	for _, typ := range sensors.AllTypes() {
		var vars []sensors.StateIndex
		for _, idx := range sensors.StatesOf(typ) {
			if delta[idx] <= 0 {
				continue
			}
			vars = append(vars, idx)
		}
		n := len(vars)
		if n == 0 {
			continue
		}
		score := func(assign []int) float64 {
			p := 1.0
			for i := range vars {
				if assign[i] == malicious {
					p *= prior
				} else {
					p *= 1 - prior
				}
			}
			for i, idx := range vars {
				inflated := ePrev[idx] > delta[idx] && eCur[idx] > delta[idx]
				if inflated == (assign[i] == malicious) {
					p *= 1
				} else {
					p *= 0
				}
				if floats.Zero(p) {
					return 0
				}
			}
			return p
		}
		marg := make([]float64, n)
		assign := make([]int, n)
		var total float64
		for code := 0; code < 1<<n; code++ {
			for i := 0; i < n; i++ {
				if code&(1<<(n-1-i)) != 0 {
					assign[i] = malicious
				} else {
					assign[i] = benign
				}
			}
			s := score(assign)
			total += s
			for j, a := range assign {
				if a == malicious {
					marg[j] += s
				}
			}
		}
		if floats.Zero(total) {
			for i := range marg {
				marg[i] = prior
			}
		} else {
			for i := range marg {
				marg[i] /= total
			}
		}
		verdict := SensorVerdict{Sensor: typ}
		for _, p := range marg {
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

// oracleDelta draws a threshold vector: mostly Table 3-sized positive
// values, with unmonitored (0, −1), NaN and +Inf channels mixed in, or
// the rover-style vector with its roll/pitch and vertical channels off.
func oracleDelta(rng *rand.Rand) Delta {
	if rng.Intn(4) == 0 {
		d := uniformDelta(1)
		d[sensors.SX], d[sensors.SY] = 4, 4
		d[sensors.SVX], d[sensors.SVY] = 2.5, 2.5
		d[sensors.SYaw], d[sensors.SBaroAlt] = 0.6, 2.5
		d[sensors.SRoll], d[sensors.SPitch] = 0, 0
		d[sensors.SWRoll], d[sensors.SWPitch] = 0, 0
		d[sensors.SZ], d[sensors.SVZ], d[sensors.SAZ] = 0, 0, 0
		return d
	}
	var d Delta
	for i := range d {
		switch rng.Intn(12) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = -1
		case 2:
			d[i] = math.NaN()
		case 3:
			d[i] = math.Inf(1)
		default:
			d[i] = 0.1 + rng.Float64()
		}
	}
	return d
}

// oracleObservation draws one observed vector against a zero prediction,
// so that each channel's error is its wrapped absolute value: quiet
// (below δ), exactly δ, one ulp above δ, clearly inflated, −0, NaN or
// ±Inf. inflate is the chance that a channel is clearly inflated.
func oracleObservation(rng *rand.Rand, delta *Delta, inflate float64) sensors.PhysState {
	var obs sensors.PhysState
	for i := range obs {
		d := delta[i]
		if math.IsNaN(d) || math.IsInf(d, 0) || d <= 0 {
			d = 1
		}
		if rng.Float64() < inflate {
			obs[i] = d + 2*rng.Float64() + 1e-9
			continue
		}
		switch rng.Intn(10) {
		case 0:
			obs[i] = d
		case 1:
			obs[i] = math.Nextafter(d, math.Inf(1))
		case 2:
			obs[i] = math.Copysign(0, -1)
		case 3:
			obs[i] = math.NaN()
		case 4:
			obs[i] = math.Inf(1 - 2*rng.Intn(2))
		default:
			obs[i] = rng.Float64() * d
		}
	}
	return obs
}

// TestDeLoreanMatchesFactorGraphOracle drives DeLorean and the
// enumeration oracle with the same error pairs and requires the same
// flagged set and the same verdicts in the same order, with bit-identical
// marginals. Each case draws a threshold vector and feeds four steps, so
// the window shift and the insufficient-history case are covered too.
func TestDeLoreanMatchesFactorGraphOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var flagged, quiet int
	for c := 0; c < 5000; c++ {
		delta := oracleDelta(rng)
		inflate := 0.8 * rng.Float64()
		d := NewDeLorean(delta)
		var pred, prevErr, curErr sensors.PhysState
		for step := 0; step < 4; step++ {
			obs := oracleObservation(rng, &delta, inflate)
			d.Observe(&pred, &obs)
			prevErr = curErr
			sensors.AbsDiffInto(&curErr, &obs, &pred)
			got, verdicts := d.Diagnose(), d.Verdicts()
			if step == 0 {
				if got.Len() != 0 || len(verdicts) != 0 {
					t.Fatalf("case %d: one observation diagnosed %v, verdicts %+v", c, got, verdicts)
				}
				continue
			}
			want := oracleVerdicts(delta, &prevErr, &curErr)
			if len(verdicts) != len(want) {
				t.Fatalf("case %d step %d: %d verdicts, oracle has %d", c, step, len(verdicts), len(want))
			}
			var wantSet sensors.TypeSet
			for i, w := range want {
				g := verdicts[i]
				if g.Sensor != w.Sensor || g.Malicious != w.Malicious ||
					math.Float64bits(g.MaxMarginal) != math.Float64bits(w.MaxMarginal) {
					t.Fatalf("case %d step %d: verdict %d is %+v, oracle %+v (δ %v, e %v → %v)",
						c, step, i, g, w, delta, prevErr, curErr)
				}
				if w.Malicious {
					wantSet.Add(w.Sensor)
					flagged++
				} else {
					quiet++
				}
			}
			if got != wantSet {
				t.Fatalf("case %d step %d: Diagnose = %v, oracle flags %v", c, step, got, wantSet)
			}
		}
	}
	t.Logf("%d flagged and %d quiet verdicts", flagged, quiet)
	if flagged < quiet/2 || quiet < flagged/2 {
		t.Errorf("unbalanced evidence: %d flagged and %d quiet verdicts", flagged, quiet)
	}
}

// TestDeLoreanDiagnoseZeroAlloc pins Diagnose's steady state at zero
// allocations, with a sensor flagged: the returned set is a value, and
// DeLorean's verdict buffer is allocated at construction and reused. The
// RA baseline's Diagnose is held to the same.
func TestDeLoreanDiagnoseZeroAlloc(t *testing.T) {
	var pred, obs sensors.PhysState
	obs[sensors.SX] = 10
	for _, d := range []Diagnoser{NewDeLorean(uniformDelta(1)), NewRA(EKFRA, uniformDelta(1))} {
		observePair(d, pred, obs, 2)
		if got := d.Diagnose(); got != sensors.NewTypeSet(sensors.GPS) {
			t.Fatalf("%T: Diagnose = %v, want {GPS}", d, got)
		}
		if n := testing.AllocsPerRun(100, func() { d.Diagnose() }); n != 0 {
			t.Errorf("%T: Diagnose allocates %v/op in steady state, want 0", d, n)
		}
	}
}

// BenchmarkDeLoreanDiagnose is the diagnosis steady state with two
// sensors flagged.
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
