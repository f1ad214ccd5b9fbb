package wind

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCalmIsZero(t *testing.T) {
	m := New(0, 1, 0, rand.New(rand.NewSource(0)))
	for i := 0; i < 100; i++ {
		if w := m.Step(0.01); w.Speed() != 0 {
			t.Fatalf("calm wind produced %v", w)
		}
	}
}

func TestMeanFlowDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(5, 0, 0.1, rng) // heading +x
	var sx, sy float64
	n := 5000
	for i := 0; i < n; i++ {
		w := m.Step(0.01)
		sx += w.VX
		sy += w.VY
	}
	if mean := sx / float64(n); math.Abs(mean-5) > 0.5 {
		t.Errorf("mean x wind = %v, want ≈ 5", mean)
	}
	if mean := sy / float64(n); math.Abs(mean) > 0.5 {
		t.Errorf("mean y wind = %v, want ≈ 0", mean)
	}
}

func TestGustsVary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New(3, 0, 1.0, rng)
	first := m.Step(0.01)
	var varied bool
	for i := 0; i < 100; i++ {
		if w := m.Step(0.01); w != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("gusty wind never varied")
	}
}

func TestGustTemporalCorrelation(t *testing.T) {
	// Consecutive samples of an OU process with τ=2 s at dt=0.01 must be
	// highly correlated: |w(t+dt) − w(t)| ≪ gust stdev.
	rng := rand.New(rand.NewSource(3))
	m := New(0, 0, 2.0, rng)
	prev := m.Step(0.01)
	var maxJump float64
	for i := 0; i < 2000; i++ {
		cur := m.Step(0.01)
		if d := math.Abs(cur.VX - prev.VX); d > maxJump {
			maxJump = d
		}
		prev = cur
	}
	if maxJump > 1.0 {
		t.Errorf("per-tick gust jump %v too large for a correlated process", maxJump)
	}
}

func TestNilRNGSafe(t *testing.T) {
	m := &Model{MeanSpeed: 5}
	if w := m.Step(0.01); w.Speed() != 0 {
		t.Errorf("nil-rng model should be calm, got %v", w)
	}
}

// Property: the gust process stays bounded (no blow-up) for any seed.
func TestPropertyGustsBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(2, 1, 1.5, rng)
		for i := 0; i < 500; i++ {
			if m.Step(0.01).Speed() > 2+1.5*8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: determinism — same seed, same sequence.
func TestPropertyDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		a := New(4, 1, 0.8, rand.New(rand.NewSource(seed)))
		b := New(4, 1, 0.8, rand.New(rand.NewSource(seed)))
		for i := 0; i < 50; i++ {
			if a.Step(0.01) != b.Step(0.01) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
