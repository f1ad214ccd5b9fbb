package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// maxAbs returns the largest absolute entry of v, or 0 for an empty vector.
func maxAbs(v Vec) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func TestVecOps(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}

	if got := v.Add(w); got[0] != 5 || got[1] != 7 || got[2] != 9 {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got[0] != -3 || got[1] != -3 || got[2] != -3 {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Errorf("Scale = %v", got)
	}
}

func TestVecCloneIndependent(t *testing.T) {
	v := Vec{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestVecIsFinite(t *testing.T) {
	tests := []struct {
		name string
		give Vec
		want bool
	}{
		{name: "finite", give: Vec{1, -2, 0}, want: true},
		{name: "nan", give: Vec{1, math.NaN()}, want: false},
		{name: "inf", give: Vec{math.Inf(1)}, want: false},
		{name: "empty", give: Vec{}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.IsFinite(); got != tt.want {
				t.Errorf("IsFinite = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMatMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got.MaxAbsDiff(want) > 1e-12 {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

func TestMatMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec(Vec{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestMatTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T shape = %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Errorf("T content wrong: %v", at)
	}
}

func TestIdentityMulIsNoop(t *testing.T) {
	a := FromRows([][]float64{{2, -1}, {0.5, 3}})
	if got := Identity(2).Mul(a); got.MaxAbsDiff(a) > 1e-15 {
		t.Errorf("I·a = %v, want %v", got, a)
	}
}

// solve solves a·x = b for a square matrix a.
func solve(a *Mat, b Vec) (Vec, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	x := NewVec(len(b))
	return x, f.SolveVecInto(x, b)
}

func TestLUSolve(t *testing.T) {
	a := FromRows([][]float64{{4, 3}, {6, 3}})
	x, err := solve(a, Vec{10, 12})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	// 4x+3y=10, 6x+3y=12 -> x=1, y=2
	if !almostEq(x[0], 1, 1e-10) || !almostEq(x[1], 2, 1e-10) {
		t.Errorf("x = %v, want [1 2]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := solve(a, Vec{1, 1}); err == nil {
		t.Error("expected ErrSingular for a rank-deficient matrix")
	}
}

// Property: for random well-conditioned systems, solve(a, a·x) recovers x.
func TestPropertyLUSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		// Diagonal dominance keeps the system well conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		x := NewVec(n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := solve(a, b)
		if err != nil {
			return false
		}
		return maxAbs(got.Sub(x)) < 1e-8
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: (Aᵀ)ᵀ = A and (A·B)ᵀ = Bᵀ·Aᵀ.
func TestPropertyTransposeIdentities(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(4)
		a := New(n, m)
		b := New(m, p)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		if a.T().T().MaxAbsDiff(a) != 0 {
			return false
		}
		return a.Mul(b).T().MaxAbsDiff(b.T().Mul(a.T())) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSolveDAREScalar(t *testing.T) {
	// Scalar system: x' = a x + b u with a=1, b=1, q=1, r=1.
	// DARE: p = p - p²/(1+p) + 1 → p² - p - 1 = 0 → p = golden ratio.
	a := FromRows([][]float64{{1}})
	b := FromRows([][]float64{{1}})
	q := FromRows([][]float64{{1}})
	r := FromRows([][]float64{{1}})
	p, err := SolveDARE(a, b, q, r, 1000, 1e-12)
	if err != nil {
		t.Fatalf("SolveDARE: %v", err)
	}
	golden := (1 + math.Sqrt(5)) / 2
	if !almostEq(p.At(0, 0), golden, 1e-8) {
		t.Errorf("p = %v, want %v", p.At(0, 0), golden)
	}
}

func TestLQRGainStabilizes(t *testing.T) {
	// Double integrator discretized at dt=0.1.
	dt := 0.1
	a := FromRows([][]float64{{1, dt}, {0, 1}})
	b := FromRows([][]float64{{0.5 * dt * dt}, {dt}})
	q := Diag([]float64{10, 1})
	r := Diag([]float64{1})
	k, err := LQRGain(a, b, q, r)
	if err != nil {
		t.Fatalf("LQRGain: %v", err)
	}
	// Simulate the closed loop from a disturbed state; it must converge.
	x := Vec{5, -2}
	for i := 0; i < 2000; i++ {
		u := k.MulVec(x).Scale(-1)
		x = a.MulVec(x).Add(b.MulVec(u))
	}
	if maxAbs(x) > 1e-3 {
		t.Errorf("closed loop did not converge: x = %v", x)
	}
}

// Property: the DARE fixed point satisfies the Riccati equation.
func TestPropertyDAREFixedPoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2
		// Stable-ish random A (scaled), full B.
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = 0.5 * r.NormFloat64()
		}
		b := New(n, 1)
		for i := range b.Data {
			b.Data[i] = 1 + r.Float64()
		}
		q := Identity(n)
		rr := FromRows([][]float64{{1}})
		p, err := SolveDARE(a, b, q, rr, 5000, 1e-11)
		if err != nil {
			return false
		}
		// Residual of the DARE at p.
		bt := b.T()
		s := rr.Add(bt.Mul(p).Mul(b))
		m, err := SolveMat(s, bt.Mul(p).Mul(a))
		if err != nil {
			return false
		}
		rhs := a.T().Mul(p).Mul(a).Sub(a.T().Mul(p).Mul(b).Mul(m)).Add(q)
		return rhs.MaxAbsDiff(p) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDiag(t *testing.T) {
	d := Diag([]float64{1, 2, 3})
	if d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Errorf("Diag content wrong: %v", d)
	}
}

func TestSymmetrize(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {4, 3}})
	s := a.Symmetrize()
	if s.At(0, 1) != 3 || s.At(1, 0) != 3 {
		t.Errorf("Symmetrize = %v", s)
	}
}

func TestMatString(t *testing.T) {
	s := FromRows([][]float64{{1, 2}}).String()
	if s == "" {
		t.Error("String returned empty")
	}
}
