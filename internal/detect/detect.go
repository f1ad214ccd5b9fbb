// Package detect implements the attack detectors DeLorean builds on
// (§4, Fig. 4): a model-residual detector in the style of PID-Piper/Savior
// that compares the physical states derived from the dynamics model with
// the states derived from sensors, raising an alert when the residual
// r = |x'(t) − x(t)| exceeds a threshold, combined with CUSUM statistics
// to catch stealthy attacks that keep each instantaneous residual below
// threshold (§4.2, citing Savior and PID-Piper).
package detect

import (
	"repro/internal/sensors"
)

// Detector is the canonical attack-detector contract of Fig. 4: it
// consumes the model-predicted and sensor-derived physical states each
// tick and reports whether an attack alert is active.
type Detector interface {
	// Update ingests one tick of (predicted, observed) states and returns
	// the alert status after this tick. The states are passed by pointer
	// (a call through an interface copies every value argument); they
	// escape, so callers keep them in long-lived structs.
	Update(predicted, observed *sensors.PhysState) bool
	// Alert reports the current alert status.
	Alert() bool
	// Reset clears detector state (e.g. at mission start).
	Reset()
}

// Thresholds holds per-state residual thresholds. A zero entry disables
// monitoring of that state.
type Thresholds [sensors.NumStates]float64

// Mechanism identifies which of the detector's two tests latched an
// alert.
type Mechanism int

// The residual detector's alert mechanisms.
const (
	// TriggerInstant is the instantaneous residual threshold test.
	TriggerInstant Mechanism = iota + 1
	// TriggerCUSUM is the accumulated-sum test that catches stealthy
	// sub-threshold attacks.
	TriggerCUSUM
)

// String names the mechanism as rendered in telemetry traces.
func (m Mechanism) String() string {
	switch m {
	case TriggerInstant:
		return "inst"
	case TriggerCUSUM:
		return "cusum"
	default:
		return "unknown"
	}
}

// Trigger attributes a latched alert to the channel and mechanism that
// fired it first (lowest channel index on the latch tick, instantaneous
// before CUSUM — deterministic for a given trace).
type Trigger struct {
	Channel   sensors.StateIndex
	Mechanism Mechanism
}

// String renders the attribution, e.g. "cusum:x".
func (t Trigger) String() string {
	if t.Mechanism == 0 {
		return ""
	}
	return t.Mechanism.String() + ":" + t.Channel.String()
}

// Residual is the PID-Piper-style detector: instantaneous residual
// thresholding on the monitored states plus a per-state CUSUM for stealthy
// attacks. An alert latches while either test fires and clears after
// HoldTicks of quiet.
type Residual struct {
	// Thresh are the instantaneous residual thresholds per state.
	Thresh Thresholds
	// CUSUMDrift is subtracted from each residual before accumulation
	// (typically ~½ of the instantaneous threshold).
	CUSUMDrift Thresholds
	// CUSUMLimit is the accumulated-sum alert level per state.
	CUSUMLimit Thresholds
	// HoldTicks keeps the alert latched for this many quiet ticks, so the
	// downstream diagnosis/recovery machinery sees a stable alert rather
	// than a flickering one.
	HoldTicks int

	sums    [sensors.NumStates]float64
	alert   bool
	quiet   int
	trigger Trigger
}

var _ Detector = (*Residual)(nil)

// NewResidual returns a residual+CUSUM detector with the given
// instantaneous thresholds; CUSUM drift defaults to 0.7× of each
// threshold (above the benign tail, so noisy small platforms do not
// accumulate false alarms over long missions) and the CUSUM limit to
// 6× each threshold.
func NewResidual(thresh Thresholds) *Residual {
	d := &Residual{Thresh: thresh, HoldTicks: 25}
	for i, v := range thresh {
		d.CUSUMDrift[i] = 0.7 * v
		d.CUSUMLimit[i] = 6 * v
	}
	return d
}

// Update ingests one tick.
func (d *Residual) Update(predicted, observed *sensors.PhysState) bool {
	var diff sensors.PhysState
	sensors.AbsDiffInto(&diff, predicted, observed)
	fired := false
	var trig Trigger
	for i := range diff {
		th := d.Thresh[i]
		if th <= 0 {
			continue
		}
		r := diff[i]
		if r > th {
			if !fired {
				trig = Trigger{Channel: sensors.StateIndex(i), Mechanism: TriggerInstant}
			}
			fired = true
		}
		// CUSUM accumulation for sub-threshold persistent bias.
		d.sums[i] += r - d.CUSUMDrift[i]
		if d.sums[i] < 0 {
			d.sums[i] = 0
		}
		if limit := d.CUSUMLimit[i]; limit > 0 && d.sums[i] > limit {
			if !fired {
				trig = Trigger{Channel: sensors.StateIndex(i), Mechanism: TriggerCUSUM}
			}
			fired = true
		}
	}
	if fired {
		if !d.alert {
			// Latch attribution: the channel/mechanism that raised this
			// alert episode.
			d.trigger = trig
		}
		d.alert = true
		d.quiet = 0
	} else if d.alert {
		d.quiet++
		if d.quiet >= d.HoldTicks {
			d.alert = false
			d.quiet = 0
			// Drain the accumulators so a cleared attack does not re-alert
			// from stale sums.
			d.sums = [sensors.NumStates]float64{}
		}
	}
	return d.alert
}

// Alert reports the latched alert status.
func (d *Residual) Alert() bool { return d.alert }

// Suspicious reports whether any CUSUM accumulator has crossed half its
// alert level — an early-warning signal. The framework freezes its
// reference-state anchoring while suspicious, so a slowly accumulating
// stealthy attack cannot drag the attack-free reference along before the
// alert finally fires.
func (d *Residual) Suspicious() bool {
	for i, s := range d.sums {
		if limit := d.CUSUMLimit[i]; limit > 0 && s > 0.5*limit {
			return true
		}
	}
	return false
}

// Trigger returns the attribution of the most recently latched alert —
// which channel and which mechanism (instantaneous vs CUSUM) raised it.
// The zero Trigger means no alert has latched since Reset.
func (d *Residual) Trigger() Trigger { return d.trigger }

// Reset clears all detector state.
func (d *Residual) Reset() {
	d.sums = [sensors.NumStates]float64{}
	d.alert = false
	d.quiet = 0
	d.trigger = Trigger{}
}

// Residuals returns the current CUSUM accumulator values (for tests and
// the RA-based diagnosis baselines, which reuse the detector's residual
// machinery).
func (d *Residual) Residuals() [sensors.NumStates]float64 { return d.sums }

// ForcedAlert is a detector stub that alerts on command; the diagnosis
// false-positive experiment (§6.1) uses it to inject detector false
// alarms under wind without an actual attack.
type ForcedAlert struct {
	On bool
}

var _ Detector = (*ForcedAlert)(nil)

// Update ignores its inputs and returns the forced status.
func (d *ForcedAlert) Update(_, _ *sensors.PhysState) bool { return d.On }

// Alert returns the forced status.
func (d *ForcedAlert) Alert() bool { return d.On }

// Reset turns the forced alert off.
func (d *ForcedAlert) Reset() { d.On = false }

// DefaultThresholds returns instantaneous residual thresholds suitable for
// the monitored position/velocity/attitude states before calibration has
// run. Calibration (core.CalibrateDelta) replaces these with per-RV values
// derived from attack-free traces.
func DefaultThresholds() Thresholds {
	var t Thresholds
	t[sensors.SX], t[sensors.SY], t[sensors.SZ] = 3.0, 3.0, 3.0
	t[sensors.SVX], t[sensors.SVY], t[sensors.SVZ] = 2.0, 2.0, 2.0
	t[sensors.SRoll], t[sensors.SPitch] = 0.35, 0.35
	t[sensors.SYaw] = 0.6
	return t
}
