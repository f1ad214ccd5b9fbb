// Package ekf implements the Extended Kalman Filter state estimator of
// §2.1/Appendix A.2. The filter follows the onboard architecture of real
// autopilots: the inertial sensors (gyroscope, accelerometer) drive the
// prediction step (strapdown propagation), while GPS, barometer, and
// magnetometer provide corrections. This is what makes sensor deception
// attacks effective against the fused estimate — bias on any sensor type
// propagates into the state estimate, as the paper's attacks require.
//
// The filter supports masking individual sensor types, which is how the
// DeLorean framework isolates diagnosed sensors from the feedback control
// loop (Fig. 4): a masked inertial sensor's role in prediction is replaced
// by the dynamics model f(x, u); a masked correcting sensor simply stops
// correcting. It also exposes pure model prediction, the roll-forward
// primitive state reconstruction uses to replay dynamics from the last
// trustworthy checkpoint (§4.3).
package ekf

import (
	"math"

	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// nx is the rigid-body state dimension.
const nx = 12

// StepFunc writes the model state dt after *s under input u into *dst;
// dst may be s. It abstracts the dynamics model: the filter and
// reconstruction run the profile's true model (StepForProfile), and SSR's
// recovery runs the same model with perturbed parameters. A StepFunc is
// pure: its result depends on its arguments only. It is called through a
// func value, so the states it is handed escape: keep them in long-lived
// structs, not in a caller's locals.
type StepFunc func(dst, s *vehicle.State, u vehicle.Input, dt float64)

// QuadStep returns a StepFunc for the given quadcopter model (no wind —
// the onboard model cannot observe wind; it is process noise).
func QuadStep(q vehicle.Quadcopter) StepFunc {
	return func(dst, s *vehicle.State, u vehicle.Input, dt float64) {
		// Step a 48-byte copy: taking the captured model's address would
		// move it out of the closure into an allocation of its own.
		m := q
		m.StepInto(dst, s, &u, &vehicle.Wind{}, dt)
	}
}

// RoverStep returns a StepFunc for the given rover model.
func RoverStep(r vehicle.Rover) StepFunc {
	return func(dst, s *vehicle.State, u vehicle.Input, dt float64) {
		m := r // see QuadStep
		m.StepInto(dst, s, &u, &vehicle.Wind{}, dt)
	}
}

// StepForProfile returns the model step for a profile's vehicle class.
func StepForProfile(p vehicle.Profile) StepFunc {
	if p.IsQuad() {
		return QuadStep(p.Quad)
	}
	return RoverStep(p.Rover)
}

// obsChannel describes one correction row: which sensor supplies it, which
// rigid-body state index it observes, and its noise floor.
type obsChannel struct {
	sensor sensors.Type
	state  int
	noise  float64
}

// Filter is the EKF. It runs at one tick period, fixed at New.
type Filter struct {
	step    StepFunc
	isQuad  bool
	profile vehicle.ProfileName // with dt, picks the schedules it may consume
	dt      float64
	x       vehicle.State
	obs     [nobs]obsChannel

	// p is the estimate covariance as its (state, rate) pairs, of which
	// the first np are carried: all six on a quad, the four observed ones
	// on a rover (see covariance.go). qdt is Q·dt on each pair's diagonal.
	p   [npair][2][2]float64
	np  int
	qdt [npair][2]float64

	// sched, when non-nil, is the shared covariance/gain schedule this
	// filter consumes instead of running its own covariance recursion
	// (see schedule.go). schedIdx counts the completed shared
	// predict/correct cycles since Init; -1 means the filter runs (or has
	// fallen back to) the private recursion. predPending marks a shared
	// covariance propagation that has been skipped in Predict*/ and not
	// yet consumed by Correct.
	sched       *Schedule
	schedIdx    int
	predPending bool

	ws workspace
}

// nobs is the number of observation rows with every sensor active (see
// New); the Correct scratch is sized for it, so masking sensors never
// reallocates.
const nobs = 10

// workspace holds the filter's fixed-size scratch, so the Predict/Correct
// cycle allocates nothing. The scratch is strictly call-local — no state
// survives in it between steps — so reusing it cannot change results;
// delint's hotalloc analyzer keeps the hot functions from quietly
// reverting to allocating code.
type workspace struct {
	// model is PredictHybrid's model step, run only when a masked
	// inertial sensor reads it.
	model vehicle.State

	// Correct scratch for m ≤ nobs active rows, in the leading m entries.
	rows  [nobs]obsChannel
	z     [nobs]float64
	kt    [nobs][nx]float64 // Kᵀ
	gates [nobs]float64     // innovation gate half-widths

	// lu holds the LU factors of one pair's Sᵀ.
	lu [maxPairRows][maxPairRows]float64
}

// New returns a filter for the profile at tick period dt, with
// measurement noise taken from the profile's sensor noise floor.
func New(p vehicle.Profile, dt float64) *Filter {
	n := p.Noise
	f := &Filter{
		step:    StepForProfile(p),
		isQuad:  p.IsQuad(),
		profile: p.Name,
		dt:      dt,
		obs: [nobs]obsChannel{
			{sensor: sensors.GPS, state: 0, noise: nz(n.GPSPos)},
			{sensor: sensors.GPS, state: 1, noise: nz(n.GPSPos)},
			{sensor: sensors.GPS, state: 2, noise: nz(n.GPSPos)},
			{sensor: sensors.GPS, state: 3, noise: nz(n.GPSVel)},
			{sensor: sensors.GPS, state: 4, noise: nz(n.GPSVel)},
			{sensor: sensors.GPS, state: 5, noise: nz(n.GPSVel)},
			{sensor: sensors.Baro, state: 2, noise: nz(n.Baro)},
			{sensor: sensors.Mag, state: 8, noise: nz(10 * n.Mag)}, // yaw from field
			// Attitude corrections from the gyro-derived (complementary
			// filtered) angle estimates close the roll/pitch loop; without
			// them an attitude offset acquired during a gyro outage would
			// never decay.
			{sensor: sensors.Gyro, state: 6, noise: nz(20 * n.Gyro)},
			{sensor: sensors.Gyro, state: 7, noise: nz(20 * n.Gyro)},
		},
	}
	f.np = roverPairs
	if f.isQuad {
		f.np = npair
	}
	for i, q := range defaultProcessNoise() {
		f.qdt[statePair[i]][stateSide(i)] = dt * q
	}
	f.Init(vehicle.State{})
	return f
}

// nz guards against a zero noise floor (singular R).
func nz(v float64) float64 {
	if v <= 0 {
		return 1e-3
	}
	return v
}

// defaultProcessNoise returns the diagonal of the process noise Q.
func defaultProcessNoise() [nx]float64 {
	var d [nx]float64
	for i := 0; i < 3; i++ {
		d[i] = 0.01   // position
		d[3+i] = 0.05 // velocity (wind is unmodelled)
		d[6+i] = 0.005
		d[9+i] = 0.01
	}
	return d
}

// Init seeds the filter state and resets the covariance to 0.1·I on the
// carried pairs. If a schedule is attached, Init (re)arms consumption from
// step 0.
func (f *Filter) Init(s vehicle.State) {
	f.x = s
	f.p = [npair][2][2]float64{}
	for k := range f.np {
		f.p[k] = [2][2]float64{{0.1, 0}, {0, 0.1}}
	}
	f.predPending = false
	if f.sched != nil {
		f.schedIdx = 0
	} else {
		f.schedIdx = -1
	}
}

// AttachSchedule points the filter at a shared covariance/gain schedule.
// Must be called before Init. A schedule built for another profile or
// tick period walks another covariance trajectory, so the filter ignores
// it and keeps its private recursion.
func (f *Filter) AttachSchedule(s *Schedule) {
	if s != nil && (s.profile.Name != f.profile || math.Float64bits(s.dt) != math.Float64bits(f.dt)) {
		s = nil
	}
	f.sched = s
	f.predPending = false
	if s != nil {
		f.schedIdx = 0
	} else {
		f.schedIdx = -1
	}
}

// onShared reports whether the filter is currently consuming the shared
// schedule rather than running its private covariance recursion.
func (f *Filter) onShared() bool { return f.schedIdx >= 0 }

// detachShared permanently drops the filter off the shared schedule: it
// materializes the private covariance the schedule has been carrying on
// its behalf and, if a propagation was pending, runs it privately. From
// here on the filter is indistinguishable from one that ran the private
// recursion the whole mission. Cold path — it allocates during schedule
// replay; detachment is sticky so it runs at most once per mission.
func (f *Filter) detachShared() {
	sched, idx, pending := f.sched, f.schedIdx, f.predPending
	f.schedIdx = -1
	f.predPending = false
	sched.seedPost(idx-1, &f.p)
	if pending {
		f.propagateCovariance()
	}
}

// State returns a copy of the current estimate.
func (f *Filter) State() vehicle.State { return f.x }

// Estimate returns the current estimate in place, so a per-tick reader
// copies nothing. It stays valid for the filter's lifetime and changes
// with every step; callers must not write through it (SetState does).
func (f *Filter) Estimate() *vehicle.State { return &f.x }

// SetState force-sets the estimate (used when recovery hands the filter a
// reconstructed state).
func (f *Filter) SetState(s vehicle.State) { f.x = s }

// Predict rolls the estimate forward one tick under input u using the
// dynamics model only (no sensors at all) — the worst-case recovery and
// reconstruction primitive.
func (f *Filter) Predict(u vehicle.Input) {
	if f.onShared() {
		// Pure model prediction only happens inside recovery — off the
		// shared all-active path by definition.
		f.detachShared()
	}
	f.propagateCovariance()
	f.step(&f.x, &f.x, u, f.dt)
}

// PredictHybrid performs the strapdown prediction: inertial channels in
// active drive the propagation from their measurements; masked inertial
// channels fall back to the dynamics model under input u.
//
//   - gyroscope active: attitude integrates the measured body rates.
//   - accelerometer active: velocity integrates the measured acceleration.
//   - masked: the model step supplies the respective derivatives.
//
// The model step runs only when a masked inertial sensor reads it: the
// step is pure, so skipping it on every other tick changes no bit.
func (f *Filter) PredictHybrid(u vehicle.Input, meas *sensors.PhysState, active sensors.TypeSet) {
	dt := f.dt
	if f.onShared() {
		if !f.predPending && active.Len() == sensors.NumTypes {
			// Nominal path: the covariance propagation is deferred and
			// consumed (together with the correction) from the shared
			// schedule in Correct.
			f.predPending = true
		} else {
			f.detachShared()
			f.propagateCovariance()
		}
	} else {
		f.propagateCovariance()
	}
	gyro, accel := active.Has(sensors.Gyro), active.Has(sensors.Accel)
	model := &f.ws.model
	if !gyro || !accel {
		f.step(model, &f.x, u, dt)
	}

	// The prediction overwrites the estimate in place: each channel reads
	// only its own previous value and channels already written this step.
	x := &f.x

	// Attitude propagation.
	if f.isQuad && gyro {
		x.WRoll = meas[sensors.SWRoll]
		x.WPitch = meas[sensors.SWPitch]
		x.WYaw = meas[sensors.SWYaw]
		x.Roll = vehicle.WrapAngle(x.Roll + x.WRoll*dt)
		x.Pitch = vehicle.WrapAngle(x.Pitch + x.WPitch*dt)
		x.Yaw = vehicle.WrapAngle(x.Yaw + x.WYaw*dt)
	} else if !f.isQuad && gyro {
		// Rovers only use the yaw gyro.
		x.WYaw = meas[sensors.SWYaw]
		x.Yaw = vehicle.WrapAngle(x.Yaw + x.WYaw*dt)
	} else {
		x.Roll, x.Pitch, x.Yaw = model.Roll, model.Pitch, model.Yaw
		x.WRoll, x.WPitch, x.WYaw = model.WRoll, model.WPitch, model.WYaw
	}

	// Velocity propagation.
	if accel {
		x.VX += meas[sensors.SAX] * dt
		x.VY += meas[sensors.SAY] * dt
		x.VZ += meas[sensors.SAZ] * dt
	} else {
		x.VX, x.VY, x.VZ = model.VX, model.VY, model.VZ
	}

	// Position integrates the propagated velocity.
	x.X += x.VX * dt
	x.Y += x.VY * dt
	x.Z += x.VZ * dt
	if x.Z < 0 {
		x.Z = 0
	}
}

// MagYaw derives the yaw observation from a magnetometer field
// measurement, inverting the BodyField observation model.
func MagYaw(meas *sensors.PhysState) float64 {
	return math.Atan2(-meas[sensors.SMagY], meas[sensors.SMagX])
}

// Correct fuses the correcting sensors (GPS, barometer, magnetometer) in
// active; masked sensors contribute nothing — the isolation mechanism of
// Fig. 4. Inertial sensors do not appear here; they act in PredictHybrid.
//
// The update is split into a measurement-independent covariance/gain half
// (covGain: H, R, S, the innovation gates, K, and the posterior P — all a
// function of the prior P and the active row set only) and a state half
// (applyGain: innovation, gating, state update). On the nominal all-active
// path the first half is identical for every mission sharing a (profile,
// dt) pair, so a filter attached to a Schedule consumes the precomputed
// (K, gates) for its current step instead of recomputing them; the split
// only reorders operations that do not depend on each other, so results
// stay bit-identical either way.
func (f *Filter) Correct(meas *sensors.PhysState, active sensors.TypeSet) error {
	rows, z := f.selectRows(meas, active)
	if f.onShared() {
		if f.predPending && len(rows) == f.sched.fullRows() {
			st, err := f.sched.step(f.schedIdx)
			if err != nil {
				return err
			}
			f.predPending = false
			f.schedIdx++
			f.applyGain(rows, z, &st.kt, &st.gates)
			return nil
		}
		// Contract breach (masked sensor, or Correct without a pending
		// predict): leave the shared path and redo this cycle privately.
		f.detachShared()
	}
	if len(rows) == 0 {
		return nil
	}
	if err := f.covGain(rows); err != nil {
		return err
	}
	f.applyGain(rows, z, &f.ws.kt, &f.ws.gates)
	return nil
}

// selectRows fills the workspace row set and measurement vector for the
// active sensors and returns them (aliases of ws.rows/ws.z).
func (f *Filter) selectRows(meas *sensors.PhysState, active sensors.TypeSet) ([]obsChannel, []float64) {
	rows := f.ws.rows[:0]
	z := f.ws.z[:0]
	for _, ch := range &f.obs {
		if !active.Has(ch.sensor) {
			continue
		}
		if ch.sensor == sensors.Gyro && !f.isQuad {
			continue // rovers carry no roll/pitch
		}
		rows = append(rows, ch)
		if ch.sensor == sensors.Mag {
			z = append(z, MagYaw(meas))
		} else {
			z = append(z, measChannel(meas, &ch))
		}
	}
	return rows, z
}

// applyGain runs the state half of the correction: the innovation against
// the current estimate, clamped to the precomputed gates, scaled through
// the gain. The leading len(rows) entries of kt (Kᵀ) and gates are read.
func (f *Filter) applyGain(rows []obsChannel, z []float64, kt *[nobs][nx]float64, gates *[nobs]float64) {
	var xv [nx]float64
	f.x.VecInto(xv[:])
	var innov [nobs]float64
	for i, ch := range rows {
		d := z[i] - xv[ch.state]
		if ch.state >= 6 && ch.state <= 8 {
			d = vehicle.WrapAngle(d)
		}
		innov[i] = vehicle.Clamp(d, -gates[i], gates[i])
	}
	// x ← x + K·innov: each state's increment sums its products from +0
	// in row order and is then added, the operation order of the
	// reference's mat.MulVecInto and vector add.
	for j := range nx {
		var s float64
		for i := range rows {
			s += kt[i][j] * innov[i]
		}
		xv[j] += s
	}
	f.x.SetVec(xv[:])
	f.x.Roll = vehicle.WrapAngle(f.x.Roll)
	f.x.Pitch = vehicle.WrapAngle(f.x.Pitch)
	f.x.Yaw = vehicle.WrapAngle(f.x.Yaw)
}

// measChannel reads the PS channel corresponding to an observation row.
func measChannel(meas *sensors.PhysState, ch *obsChannel) float64 {
	switch {
	case ch.sensor == sensors.Baro:
		return meas[sensors.SBaroAlt]
	case ch.sensor == sensors.Gyro:
		return meas[sensors.SRoll+sensors.StateIndex(ch.state-6)]
	default:
		return meas[sensors.StateIndex(ch.state)] // x..vz map 1:1
	}
}
