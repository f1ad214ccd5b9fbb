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

// Record appends the sample at time t: the measured states, the fused
// estimate and the control input. It is a no-op while recording is
// stopped (attack in progress). Completed quiet windows rotate into the
// trusted slot (Fig. 6a). The states come by pointer.
func (r *Recorder) Record(t float64, ps *sensors.PhysState, est *vehicle.State, u vehicle.Input) {
	if r.stopped {
		return
	}
	if !r.started {
		r.curStart = t
		r.started = true
	}
	if t-r.curStart >= r.window && len(r.cur) > 0 {
		// Window w_i completed with no alert: it becomes the trusted
		// window; w_{i−1} is discarded (Fig. 6a). The discarded window's
		// buffer is recycled as the new current window, so steady-state
		// recording stops allocating once both buffers hold a window.
		r.prev, r.cur = r.cur, recycle(r.prev, r.cur)
		r.curStart = t
	}
	r.cur = append(r.cur, Record{T: t, PS: *ps, Est: *est, Input: u})
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

// Replay returns what a reconstruction replays: the most recent
// trustworthy record x_{t_s} (§4.3) and every record after it, in order,
// and false if no trusted window exists. The anchor is the trusted
// window's last record, and every record after it is in the current
// window (a rotation, a promotion or a Resume empties that window and
// time only moves forward), so the records are the current window itself.
// Post-alert records are input-only; their measurement fields are zero
// and flagged InputOnly. The slice is shared and reused at the next window
// rotation or Resume; callers must not mutate it or retain it across
// Record calls.
func (r *Recorder) Replay() (anchor Record, since []Record, ok bool) {
	if len(r.prev) == 0 {
		return Record{}, nil, false
	}
	return r.prev[len(r.prev)-1], r.cur, true
}

// LatestTrusted returns the most recent trustworthy record x_{t_s}
// (§4.3), and false if no trusted window exists.
func (r *Recorder) LatestTrusted() (Record, bool) {
	if len(r.prev) == 0 {
		return Record{}, false
	}
	return r.prev[len(r.prev)-1], true
}

// MemoryBytes reports the recorder's approximate buffer footprint for the
// Table 3 memory-overhead row.
func (r *Recorder) MemoryBytes() int {
	return (len(r.cur) + len(r.prev)) * recordBytes
}
