package fg_test

// Benchmarks for the factor-graph inference path the diagnosis engine
// drives.

import (
	"testing"

	"repro/internal/fg"
)

// buildDiagnosisShapedGraph mirrors the per-sensor diagnosis graphs: one
// variable and one threshold factor per monitored physical state.
func buildDiagnosisShapedGraph(n int) (*fg.Graph, []*fg.Variable) {
	g := fg.New()
	vars := make([]*fg.Variable, n)
	for i := 0; i < n; i++ {
		v := g.AddVariable("s")
		inflate := float64(i%2) * 2
		g.AddFactor("f", fg.ThresholdFactor(inflate, inflate, 1), v)
		vars[i] = v
	}
	return g, vars
}

func BenchmarkFGMarginals(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, _ := buildDiagnosisShapedGraph(6)
		_ = g.Marginals()
	}
}

// BenchmarkFGMarginalAllVars measures per-variable queries on one graph —
// the pattern that paid 2ⁿ per variable before the shared enumeration.
func BenchmarkFGMarginalAllVars(b *testing.B) {
	g, vars := buildDiagnosisShapedGraph(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vars {
			if _, err := g.Marginal(v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFGMarginalsSteady is the cached-graph steady state the
// diagnosis engine now runs: graphs built once with evidence-cell
// factors, each step rewriting the cells, invalidating, and reading the
// marginals into a reused buffer. Must report 0 allocs/op.
func BenchmarkFGMarginalsSteady(b *testing.B) {
	const n = 6
	ePrev := make([]float64, n)
	eCur := make([]float64, n)
	g := fg.New()
	for i := 0; i < n; i++ {
		v := g.AddVariable("s")
		g.AddFactor("f", fg.ThresholdFactorAt(&ePrev[i], &eCur[i], 1), v)
	}
	buf := make([]float64, n)
	g.MarginalsInto(buf) // warm the enumeration scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			ePrev[j] = float64((i + j) % 3)
			eCur[j] = ePrev[j]
		}
		g.Invalidate()
		g.MarginalsInto(buf)
	}
}
