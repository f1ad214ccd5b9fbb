package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "single", give: []float64{7}, want: 7},
		{name: "mixed", give: []float64{1, 2, 3, 4}, want: 2.5},
		{name: "negative", give: []float64{-2, 2}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.give); got != tt.want {
				t.Errorf("Mean(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestStdev(t *testing.T) {
	if got := Stdev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2.1380899) > 1e-6 {
		t.Errorf("Stdev = %v", got)
	}
	if got := Stdev([]float64{5}); got != 0 {
		t.Errorf("Stdev of single sample = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "odd", give: []float64{3, 1, 2}, want: 2},
		{name: "even", give: []float64{4, 1, 3, 2}, want: 2.5},
		{name: "empty", give: nil, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Median(tt.give); got != tt.want {
				t.Errorf("Median(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated input: %v", xs)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	tests := []struct {
		q    float64
		want float64
	}{
		{q: 0, want: 0},
		{q: 0.25, want: 1},
		{q: 0.5, want: 2},
		{q: 1, want: 4},
		{q: -0.5, want: 0},
		{q: 2, want: 4},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestEmpiricalCDF(t *testing.T) {
	cdf := EmpiricalCDF([]float64{2, 1, 3})
	if len(cdf) != 3 {
		t.Fatalf("len = %d", len(cdf))
	}
	if cdf[0].Value != 1 || cdf[2].Value != 3 {
		t.Errorf("CDF not sorted: %v", cdf)
	}
	if cdf[2].Prob != 1 {
		t.Errorf("final prob = %v, want 1", cdf[2].Prob)
	}
}

func TestOutlierThreshold(t *testing.T) {
	xs := []float64{1, 1, 1, 1, 1}
	// Zero spread: δ = median.
	if got := OutlierThreshold(xs, 3); got != 1 {
		t.Errorf("OutlierThreshold = %v, want 1", got)
	}
}

// Property: the δ rule with k=3 bounds the bulk of a Gaussian sample —
// at most a small fraction of attack-free samples exceed δ.
func TestPropertyDeltaBoundsGaussianBulk(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 500)
		for i := range xs {
			xs[i] = math.Abs(r.NormFloat64())
		}
		delta := OutlierThreshold(xs, 3)
		var exceed int
		for _, x := range xs {
			if x > delta {
				exceed++
			}
		}
		return float64(exceed)/float64(len(xs)) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: quantile is monotone in q.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+r.Intn(50))
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the empirical CDF is non-decreasing and ends at probability 1.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+r.Intn(100))
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		cdf := EmpiricalCDF(xs)
		for i := 1; i < len(cdf); i++ {
			if cdf[i].Prob < cdf[i-1].Prob || cdf[i].Value < cdf[i-1].Value {
				return false
			}
		}
		return cdf[len(cdf)-1].Prob == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
