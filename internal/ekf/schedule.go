// Shared covariance/gain schedule.
//
// The EKF covariance recursion is measurement-independent: P evolves as
// P ← sym(F·P·Fᵀ + Q·dt) in prediction and P ← sym((I−K·H)·P) in
// correction, where F, Q, H, R depend only on the vehicle profile, the
// tick period, and the active sensor set — never on the measurements or
// the state estimate (innovation gating clamps the state update, not P).
// On the nominal path every sensor is active every tick, so the entire
// (K_t, gate_t, P_t) sequence is one deterministic function of
// (profile, dt): every mission sharing that pair walks the same schedule.
//
// Schedule materializes that sequence once, on demand, and lets any
// number of Filters consume it concurrently. A consuming filter skips
// all covariance arithmetic (≈2/3 of the per-tick EKF cost) and applies
// the cached gain and gates to its private state. A filter attaches only
// to a schedule built for its own profile and tick period. The moment a
// mission leaves the nominal path — a sensor is masked for recovery, or a
// pure model Predict runs — the filter detaches: the schedule
// reconstructs the exact covariance the filter would have had (from a
// snapshot plus deterministic replay of the same kernels) and the filter
// continues on its private recursion, bit-identical to a filter that
// never shared. Detachment is sticky; missions never rejoin mid-flight.
//
// The recursion runs on the filter's covariance pairs (covariance.go),
// so a schedule's snapshots hold the pairs too: only the four observed
// ones on a rover, whose unobserved roll and pitch variances would grow
// without bound and keep P from repeating. At dt 0.01, the tick period every
// mission runs at, each profile's recursion reaches a bitwise fixpoint
// (the DARE steady state) within 1,200–2,000 cycles, after which one
// steady step serves every later tick, so a schedule stops growing however
// long its missions run. (At dt 0.02, Tarot's and ArduRover's recursions
// settle into a period-2 cycle instead, and their schedules keep growing.)
package ekf

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// snapEvery is the post-correction covariance snapshot stride. Snapshots
// bound detach-time replay to at most snapEvery-1 cycles.
const snapEvery = 64

// schedStep is one precomputed correction: the Kalman gain (as Kᵀ) and the
// innovation gate half-widths for the full-active row set, in their
// leading rows. Steps are immutable once published.
type schedStep struct {
	kt    [nobs][nx]float64
	gates [nobs]float64
}

// snapshot is a post-correction covariance checkpoint: p is the
// covariance after completing cycle `cycle`.
type snapshot struct {
	cycle int
	p     [npair][2][2]float64
}

// Schedule is the shared covariance/gain schedule for one
// (vehicle profile, dt) pair. It is safe for concurrent use: the hot
// read path (step) is lock-free over atomically published immutable
// steps; extension and detach-time covariance reconstruction serialize
// on a mutex.
type Schedule struct {
	profile vehicle.Profile
	dt      float64
	nrows   int

	// steps is the atomically published prefix of the schedule. Readers
	// load the header; the backing array elements below len are
	// immutable. steady is the first index from which the schedule
	// repeats forever (the covariance fixpoint), or -1 while unknown.
	// steady is stored after the steps header that contains it, so a
	// reader observing steady ≥ 0 always finds steps[steady] present.
	steps  atomic.Pointer[[]*schedStep]
	steady atomic.Int64

	mu      sync.Mutex
	builder *Filter      // advances the shared recursion; guarded by mu
	scratch *Filter      // detach-time replay filter; guarded by mu
	rows    []obsChannel // full-active observation rows
	// prevP is the covariance after the last built cycle. Once the
	// fixpoint is reached no cycle is built, so it holds the steady
	// covariance.
	prevP [npair][2][2]float64
	snaps []snapshot
	err   error // sticky builder error; steps before it stay served
}

// NewSchedule builds an empty schedule for the profile at tick period
// dt. Steps materialize lazily as filters consume them.
func NewSchedule(p vehicle.Profile, dt float64) *Schedule {
	b := New(p, dt)
	r, _ := b.selectRows(&sensors.PhysState{}, sensors.All)
	rows := append([]obsChannel(nil), r...)
	s := &Schedule{
		profile: p,
		dt:      dt,
		nrows:   len(rows),
		builder: b,
		rows:    rows,
		prevP:   b.p,
	}
	empty := make([]*schedStep, 0, 2048)
	s.steps.Store(&empty)
	s.steady.Store(-1)
	return s
}

// fullRows returns the observation row count of the full-active set.
func (s *Schedule) fullRows() int { return s.nrows }

// Steps reports how many distinct steps have been materialized and
// whether the covariance fixpoint has been reached (after which one
// steady step serves every later cycle).
func (s *Schedule) Steps() (built int, steady bool) {
	return len(*s.steps.Load()), s.steady.Load() >= 0
}

// step returns the schedule entry for cycle i, materializing it (and
// any gap before it) if needed. The fast path is two atomic loads.
func (s *Schedule) step(i int) (*schedStep, error) {
	if st := s.steady.Load(); st >= 0 && int64(i) >= st {
		return (*s.steps.Load())[st], nil
	}
	if sp := *s.steps.Load(); i < len(sp) {
		return sp[i], nil
	}
	return s.extendTo(i)
}

// extendTo materializes steps through index i. Cold path: it runs the
// full covariance recursion and allocates the published steps.
func (s *Schedule) extendTo(i int) (*schedStep, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := *s.steps.Load()
	for len(sp) <= i {
		if st := s.steady.Load(); st >= 0 {
			return sp[st], nil
		}
		if s.err != nil {
			return nil, s.err
		}
		sp = s.build(sp)
	}
	return sp[i], nil
}

// build advances the builder one predict/correct cycle, publishes the
// new step, and runs fixpoint detection and snapshotting. On builder
// error it latches s.err and returns sp unchanged (the caller observes
// it on the next loop iteration). Caller holds mu.
func (s *Schedule) build(sp []*schedStep) []*schedStep {
	b := s.builder
	b.propagateCovariance()
	if err := b.covGain(s.rows); err != nil {
		s.err = err
		return sp
	}
	c := len(sp)
	sp = append(sp, &schedStep{kt: b.ws.kt, gates: b.ws.gates})
	s.steps.Store(&sp)
	if bitsEqual(&b.p, &s.prevP) {
		// P reproduced itself bit-for-bit: every later cycle computes
		// the same (K, gates, P) from the same inputs. Steps[c] serves
		// all cycles ≥ c; store the order-critical steady marker last.
		s.steady.Store(int64(c))
		return sp
	}
	s.prevP = b.p
	if (c+1)%snapEvery == 0 {
		s.snaps = append(s.snaps, snapshot{cycle: c, p: b.p})
	}
	return sp
}

// seedPost writes the post-correction covariance of the given cycle
// into dst (cycle -1 is the Init covariance). It reconstructs interior
// cycles by replaying the deterministic recursion from the nearest
// snapshot with the same kernels the builder used, so the result is
// bit-identical to a filter that ran privately from the start. Cold
// path: called once per detaching filter.
func (s *Schedule) seedPost(cycle int, dst *[npair][2][2]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.steady.Load(); st >= 0 && cycle >= int(st)-1 {
		*dst = s.prevP
		return
	}
	if s.scratch == nil {
		s.scratch = New(s.profile, s.dt)
	}
	sc := s.scratch
	sc.Init(vehicle.State{}) // the Init covariance, cycle -1
	start := -1
	for i := range s.snaps {
		sn := &s.snaps[i]
		if sn.cycle > cycle {
			break
		}
		start = sn.cycle
		sc.p = sn.p
	}
	for c := start; c < cycle; c++ {
		sc.propagateCovariance()
		if err := sc.covGain(s.rows); err != nil {
			// The builder completed these cycles without error, so the
			// bit-identical replay cannot fail; stop at the last good P.
			break
		}
	}
	*dst = sc.p
}

// bitsEqual reports exact bitwise equality of two covariances.
func bitsEqual(a, b *[npair][2][2]float64) bool {
	for k := range a {
		for i := range 2 {
			for j := range 2 {
				if math.Float64bits(a[k][i][j]) != math.Float64bits(b[k][i][j]) {
					return false
				}
			}
		}
	}
	return true
}
