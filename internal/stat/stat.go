// Package stat provides the small set of descriptive statistics used for
// δ-threshold calibration (median + k·stdev outlier rule, per Reimann et
// al. as cited by the paper) and for the CDF-style figures (Fig. 8a/8b).
package stat

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stdev returns the sample standard deviation of xs (n−1 denominator),
// or 0 when fewer than two samples are given.
func Stdev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Median returns the median of xs, or 0 for an empty slice.
// xs is not modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile of xs (0 ≤ q ≤ 1) using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDFPoint is one (value, cumulative probability) sample of an empirical
// cumulative distribution function.
type CDFPoint struct {
	Value float64
	Prob  float64
}

// EmpiricalCDF returns the empirical CDF of xs as a sorted series of
// points. xs is not modified.
func EmpiricalCDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]CDFPoint, len(sorted))
	n := float64(len(sorted))
	for i, v := range sorted {
		out[i] = CDFPoint{Value: v, Prob: float64(i+1) / n}
	}
	return out
}

// OutlierThreshold implements the paper's δ rule:
//
//	δ = median(e) + k·stdev(e)
//
// with k = 3 by default (§5.4). Values above δ are treated as
// attack-induced outliers.
func OutlierThreshold(xs []float64, k float64) float64 {
	return Median(xs) + k*Stdev(xs)
}
