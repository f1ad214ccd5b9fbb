package detect

import (
	"math"

	"repro/internal/sensors"
)

// Innovation is a Savior-style detector: instead of thresholding raw
// residuals it normalizes each channel's residual by a running estimate
// of its attack-free standard deviation and applies a χ²-like test on the
// aggregate, plus the same per-channel CUSUM for stealthy attacks
// (Quinonez et al.'s SAVIOR detects attacks with "robust physical
// invariants" via normalized innovation monitoring).
//
// Compared to the plain Residual detector it adapts its sensitivity to
// the observed noise level per channel rather than relying wholly on
// calibrated absolute thresholds.
type Innovation struct {
	// Monitored marks the channels under test; zero entries are skipped.
	Monitored Thresholds
	// Gate is the per-channel normalized-residual alert level in σ units
	// (default 6).
	Gate float64
	// CUSUMDrift and CUSUMLimit are in σ units (defaults 1.5 and 40).
	CUSUMDrift float64
	CUSUMLimit float64
	// HoldTicks keeps the alert latched through short quiet gaps.
	HoldTicks int
	// Warmup is the number of ticks used purely to learn the noise scale
	// before alerts can fire (the mission start is assumed attack-free,
	// §2.3).
	Warmup int

	meanEst [sensors.NumStates]float64
	varEst  [sensors.NumStates]float64
	sums    [sensors.NumStates]float64
	ticks   int
	alert   bool
	quiet   int
}

var _ Detector = (*Innovation)(nil)

// NewInnovation returns a Savior-style detector monitoring the channels
// with non-zero entries in monitored (the values themselves seed the
// initial σ estimates).
func NewInnovation(monitored Thresholds) *Innovation {
	d := &Innovation{
		Monitored:  monitored,
		Gate:       6,
		CUSUMDrift: 1.5,
		CUSUMLimit: 40,
		HoldTicks:  25,
		Warmup:     300,
	}
	for i, v := range monitored {
		if v > 0 {
			// Seed σ at a third of the calibrated threshold; the running
			// estimator refines it during warmup.
			d.varEst[i] = (v / 3) * (v / 3)
		}
	}
	return d
}

// Update ingests one tick of (predicted, observed) states.
func (d *Innovation) Update(predicted, observed *sensors.PhysState) bool {
	var diff sensors.PhysState
	sensors.AbsDiffInto(&diff, predicted, observed)
	d.ticks++
	learning := d.ticks <= d.Warmup
	fired := false

	const alpha = 0.01 // EW update rate for the noise statistics
	for i := range diff {
		if d.Monitored[i] <= 0 {
			continue
		}
		r := diff[i]
		sigma := math.Sqrt(d.varEst[i])
		if sigma < 1e-6 {
			sigma = 1e-6
		}
		// Centre on the learned mean so the CUSUM statistic is zero-mean
		// in the attack-free regime.
		norm := (r - d.meanEst[i]) / sigma
		if norm < 0 {
			norm = 0
		}

		if learning || norm < d.Gate/2 {
			// Adapt the noise model only while the channel looks benign,
			// so an attack cannot teach the detector to ignore it.
			d.meanEst[i] += alpha * (r - d.meanEst[i])
			dev := r - d.meanEst[i]
			d.varEst[i] += alpha * (dev*dev - d.varEst[i])
		}
		if learning {
			continue
		}
		if norm > d.Gate {
			fired = true
		}
		d.sums[i] += norm - d.CUSUMDrift
		if d.sums[i] < 0 {
			d.sums[i] = 0
		}
		if d.sums[i] > d.CUSUMLimit {
			fired = true
		}
	}
	if fired {
		d.alert = true
		d.quiet = 0
	} else if d.alert {
		d.quiet++
		if d.quiet >= d.HoldTicks {
			d.alert = false
			d.quiet = 0
			d.sums = [sensors.NumStates]float64{}
		}
	}
	return d.alert
}

// Alert reports the latched alert status.
func (d *Innovation) Alert() bool { return d.alert }

// Suspicious reports the early-warning state for anchoring freezes, like
// Residual.Suspicious.
func (d *Innovation) Suspicious() bool {
	for i, s := range d.sums {
		if d.Monitored[i] > 0 && s > 0.5*d.CUSUMLimit {
			return true
		}
	}
	return false
}

// Reset clears alert state and accumulators but keeps the learned noise
// model (re-learning from scratch after every recovery would blind the
// detector).
func (d *Innovation) Reset() {
	d.sums = [sensors.NumStates]float64{}
	d.alert = false
	d.quiet = 0
}
