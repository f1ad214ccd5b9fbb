// Package checkpoint implements Historic States Checkpointing (§4.2):
// while the attack detector is quiet, the RV's physical states and control
// inputs are recorded in a sliding window w_i; when a window completes
// without an alert it becomes the trusted window and recording proceeds in
// w_{i+1}; when an alert fires, the current (possibly corrupted) window is
// discarded and the previous attack-free window supplies the trustworthy
// historic states HS for state reconstruction and recovery (Fig. 6).
//
// The window length is chosen large enough that a stealthy attack is
// detected within a single window (§4.2/§5.4), so a window that completed
// quietly cannot hide an undetected stealthy attack.
package checkpoint

import (
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// Record is one checkpoint sample: the sensor-derived physical states, the
// fused state estimate (the recovery anchor), and the control input issued
// at that tick (needed to roll the dynamics forward from the anchor).
type Record struct {
	T     float64
	PS    sensors.PhysState
	Est   vehicle.State
	Input vehicle.Input
	// InputOnly marks a record captured after an alert: only the control
	// input is trustworthy; the PS/Est fields are zero and must not be
	// used as measurements.
	InputOnly bool
}

// recordBytes approximates the in-memory footprint of one Record for the
// Table 3 memory-overhead accounting.
const recordBytes = 8 + int(sensors.NumStates)*8 + 12*8 + 4*8

// Recorder is the sliding-window historic-states recorder.
type Recorder struct {
	window float64

	cur      []Record
	prev     []Record
	curStart float64
	started  bool
	stopped  bool
}

// NewRecorder returns a recorder with the given window length in seconds
// (Table 3's WS column; derived per-RV from the stealthy-attack probe,
// §5.4).
func NewRecorder(windowSec float64) *Recorder {
	return &Recorder{window: windowSec}
}

// Window returns the configured window length.
func (r *Recorder) Window() float64 { return r.window }

// Record appends one sample. It is a no-op while recording is stopped
// (attack in progress). Completed quiet windows rotate into the trusted
// slot (Fig. 6a).
func (r *Recorder) Record(rec Record) {
	if r.stopped {
		return
	}
	if !r.started {
		r.curStart = rec.T
		r.started = true
	}
	if rec.T-r.curStart >= r.window && len(r.cur) > 0 {
		// Window w_i completed with no alert: it becomes the trusted
		// window; w_{i−1} is discarded (Fig. 6a). The discarded window's
		// buffer is recycled as the new current window, so steady-state
		// recording stops allocating once both buffers hold a window.
		r.prev, r.cur = r.cur, recycle(r.prev, r.cur)
		r.curStart = rec.T
	}
	r.cur = append(r.cur, rec)
}

// OnAlert stops recording and invalidates the current window's states,
// which may be corrupted by the attack (Fig. 6b). The previously
// completed window remains available as the trusted HS. The current
// window's control *inputs* are retained — inputs are produced by the
// controller, not by sensors, and the reconstruction roll-forward needs
// them to bridge the gap between the trusted anchor and the recovery
// activation time. If no window has completed yet (attack within the
// first window of an attack-free launch zone, §2.3), the current window
// up to the alert is promoted instead — the detector was quiet for all
// of it.
func (r *Recorder) OnAlert() {
	if r.stopped {
		return
	}
	if len(r.prev) == 0 && len(r.cur) > 0 {
		r.prev, r.cur = r.cur, recycle(r.prev, r.cur)
	}
	r.stopped = true
}

// recycle empties buf for reuse as the current window. Before the first
// promotion there is no buffer to recycle, so it allocates one with the
// capacity of the window being promoted: the next window (or the
// input-only records after an alert) then fills it without growing from
// empty. Cold path: it allocates at most once per recorder (declared in
// the hotalloc analyzer's cold list).
func recycle(buf, promoted []Record) []Record {
	if buf == nil {
		return make([]Record, 0, cap(promoted))
	}
	return buf[:0]
}

// Resume restarts recording after the attack subsides; a fresh current
// window begins at time t. The tainted gap records are dropped, and the
// old trusted window is retained until a new quiet window replaces it.
func (r *Recorder) Resume(t float64) {
	r.stopped = false
	r.cur = r.cur[:0]
	r.curStart = t
	r.started = true
}

// RecordInput appends an input-only record while recording is stopped, so
// the reconstruction roll-forward can bridge the full detection gap. The
// record's states are never served as trusted data.
func (r *Recorder) RecordInput(t float64, u vehicle.Input) {
	if !r.stopped {
		return
	}
	r.cur = append(r.cur, Record{T: t, Input: u, InputOnly: true})
}

// RecordsSince returns the records strictly after time t, in order,
// spanning the trusted and current windows. Post-alert records are
// input-only; their measurement fields are zero and flagged InputOnly.
func (r *Recorder) RecordsSince(t float64) []Record {
	var out []Record
	for _, rec := range r.prev {
		if rec.T > t {
			out = append(out, rec)
		}
	}
	for _, rec := range r.cur {
		if rec.T > t {
			out = append(out, rec)
		}
	}
	return out
}

// Stopped reports whether recording is currently halted.
func (r *Recorder) Stopped() bool { return r.stopped }

// Trusted returns the attack-free historic states HS (the last completed
// quiet window), or an empty slice if none exists yet. The returned slice
// is shared and recycled at the next window rotation; callers must not
// mutate it or retain it across Record calls.
func (r *Recorder) Trusted() []Record { return r.prev }

// LatestTrusted returns the most recent trustworthy record x_{t_s}
// (§4.3), and false if no trusted window exists.
func (r *Recorder) LatestTrusted() (Record, bool) {
	if len(r.prev) == 0 {
		return Record{}, false
	}
	return r.prev[len(r.prev)-1], true
}

// InputsSince returns the recorded control inputs strictly after time t,
// in order, spanning both the trusted and the current window. Control
// inputs are produced by the controller, not by sensors, so they remain
// usable from the discarded window for rolling the dynamics forward
// across the detection gap [t_s, t_a].
func (r *Recorder) InputsSince(t float64) []vehicle.Input {
	var out []vehicle.Input
	for _, rec := range r.prev {
		if rec.T > t {
			out = append(out, rec.Input)
		}
	}
	for _, rec := range r.cur {
		if rec.T > t {
			out = append(out, rec.Input)
		}
	}
	return out
}

// MemoryBytes reports the recorder's approximate buffer footprint for the
// Table 3 memory-overhead row.
func (r *Recorder) MemoryBytes() int {
	return (len(r.cur) + len(r.prev)) * recordBytes
}

// Len returns the number of samples currently buffered across both
// windows.
func (r *Recorder) Len() int { return len(r.cur) + len(r.prev) }
