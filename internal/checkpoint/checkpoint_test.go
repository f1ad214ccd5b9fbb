package checkpoint

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/sensors"
	"repro/internal/vehicle"
)

func rec(t float64) Record {
	var ps sensors.PhysState
	ps[sensors.SX] = t // encode time in the state for identification
	return Record{T: t, PS: ps, Est: vehicle.State{X: t}, Input: vehicle.Input{Thrust: t}}
}

// record appends rec's fields to r.
func record(r *Recorder, rec Record) { r.Record(rec.T, &rec.PS, &rec.Est, rec.Input) }

func TestWindowRotation(t *testing.T) {
	r := NewRecorder(1.0)
	for i := 0; i < 25; i++ {
		record(r, rec(float64(i)*0.1)) // 2.5 s of samples, 1 s windows
	}
	last, ok := r.LatestTrusted()
	if !ok {
		t.Fatal("no trusted window after multiple rotations")
	}
	// The trusted window should be the one before the current; its last
	// record is at the most recent rotation boundary minus one sample.
	if last.T < 1.0 || last.T >= 2.5 {
		t.Errorf("latest trusted at t=%v, want within a completed window", last.T)
	}
	anchor, since, _ := r.Replay()
	if anchor != last {
		t.Error("Replay's anchor disagrees with LatestTrusted")
	}
	if len(since) == 0 || since[0].T < 2.0 {
		t.Errorf("current window %v does not start at the last rotation", since)
	}
}

func TestAlertDiscardsCurrentWindow(t *testing.T) {
	r := NewRecorder(1.0)
	for i := 0; i < 15; i++ {
		record(r, rec(float64(i)*0.1))
	}
	// At t=1.4 the current window (started at 1.0) may be corrupted.
	r.OnAlert()
	last, ok := r.LatestTrusted()
	if !ok {
		t.Fatal("trusted window lost on alert")
	}
	if last.T >= 1.0 {
		t.Errorf("latest trusted t=%v should predate the corrupted window", last.T)
	}
}

func TestAlertStopsRecording(t *testing.T) {
	r := NewRecorder(1.0)
	for i := 0; i < 15; i++ {
		record(r, rec(float64(i)*0.1))
	}
	r.OnAlert()
	_, before, _ := r.Replay()
	n, mem := len(before), r.MemoryBytes()
	record(r, rec(2.0))
	if _, since, _ := r.Replay(); len(since) != n || r.MemoryBytes() != mem {
		t.Error("record accepted while stopped")
	}
	// A stopped recorder keeps input-only records instead.
	r.RecordInput(2.0, vehicle.Input{Thrust: 2})
	if _, since, _ := r.Replay(); len(since) != n+1 || !since[n].InputOnly {
		t.Error("recorder should be stopped after alert")
	}
}

func TestAlertInFirstWindowPromotesPrefix(t *testing.T) {
	// Attack-free start assumption: if the alert fires before the first
	// rotation, the quiet prefix becomes the trusted window.
	r := NewRecorder(10.0)
	for i := 0; i < 5; i++ {
		record(r, rec(float64(i)*0.1))
	}
	r.OnAlert()
	last, ok := r.LatestTrusted()
	if !ok {
		t.Fatal("first-window alert should promote the quiet prefix")
	}
	if last.T != 0.4 {
		t.Errorf("latest trusted t=%v, want 0.4", last.T)
	}
}

func TestResumeRestartsRecording(t *testing.T) {
	r := NewRecorder(1.0)
	for i := 0; i < 15; i++ {
		record(r, rec(float64(i)*0.1))
	}
	r.OnAlert()
	oldTrusted, _ := r.LatestTrusted()
	r.Resume(3.0)
	record(r, rec(3.0))
	if _, since, _ := r.Replay(); len(since) != 1 || since[0] != rec(3.0) {
		t.Errorf("recorder should run after Resume; current window %v", since)
	}
	// Old trusted window survives until a fresh window completes.
	cur, _ := r.LatestTrusted()
	if cur != oldTrusted {
		t.Error("trusted window should survive resume until replaced")
	}
	for i := 1; i < 25; i++ {
		record(r, rec(3.0+float64(i)*0.1))
	}
	fresh, _ := r.LatestTrusted()
	if fresh.T <= oldTrusted.T {
		t.Errorf("trusted window not refreshed after resume: %v", fresh.T)
	}
}

func TestReplayStartsAfterAnchor(t *testing.T) {
	r := NewRecorder(1.0)
	for i := 0; i < 25; i++ {
		record(r, rec(float64(i)*0.1))
	}
	r.OnAlert()
	for i := 25; i < 30; i++ {
		r.RecordInput(float64(i)*0.1, vehicle.Input{Thrust: float64(i) * 0.1})
	}
	anchor, since, ok := r.Replay()
	if !ok {
		t.Fatal("no trusted anchor")
	}
	if latest, _ := r.LatestTrusted(); anchor != latest {
		t.Errorf("anchor at t=%v, latest trusted record at t=%v", anchor.T, latest.T)
	}
	if len(since) == 0 {
		t.Fatal("no records since anchor")
	}
	// The first record must be the one immediately after the anchor.
	if since[0].Input.Thrust <= anchor.T {
		t.Errorf("first record at %v, want after anchor %v", since[0].Input.Thrust, anchor.T)
	}
	// Records must be in time order (thrust encodes t), and the detection
	// gap after the alert is input-only.
	for i := 1; i < len(since); i++ {
		if since[i].Input.Thrust <= since[i-1].Input.Thrust {
			t.Fatal("records out of order")
		}
	}
	if last := since[len(since)-1]; !last.InputOnly {
		t.Errorf("post-alert record at %v is not input-only", last.T)
	}
}

// recordsSince is the reconstruction's former accessor: it copied every
// record strictly after time t, in order, from the trusted window and then
// the current one. It is the reference Replay's window is checked against.
func recordsSince(r *Recorder, t float64) []Record {
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

// Property: the records Replay returns after its anchor are exactly the
// records after the anchor's time, under any interleaving of ticks,
// alerts, resumes and window rotations. Each tick runs as a mission's
// does: an alert edge or a resume, then Record and RecordInput (one of
// which is a no-op).
func TestPropertyReplayMatchesRecordsSince(t *testing.T) {
	checks := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRecorder(0.05 + rng.Float64())
		tm := 0.0
		stopped := false
		for i := 0; i < 400; i++ {
			tm += 0.005 + 0.02*rng.Float64()
			switch u := rng.Float64(); {
			case !stopped && u < 0.02:
				r.OnAlert()
				stopped = true
			case stopped && u < 0.05:
				r.Resume(tm)
				stopped = false
			}
			record(r, rec(tm))
			r.RecordInput(tm, vehicle.Input{Thrust: tm})
			anchor, since, ok := r.Replay()
			if latest, has := r.LatestTrusted(); ok != has || anchor != latest {
				return false
			}
			if !ok {
				continue
			}
			want := recordsSince(r, anchor.T)
			if len(since) != len(want) {
				return false
			}
			for k := range want {
				if since[k] != want[k] {
					return false
				}
			}
			checks++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if checks == 0 {
		t.Error("no tick had a trusted anchor; the property was never checked")
	}
	t.Logf("%d ticks with a trusted anchor checked", checks)
}

func TestMemoryAccounting(t *testing.T) {
	r := NewRecorder(1.0)
	if r.MemoryBytes() != 0 {
		t.Error("empty recorder should report zero memory")
	}
	record(r, rec(0))
	if r.MemoryBytes() <= 0 {
		t.Error("memory should grow with records")
	}
}

// Property: the trusted window never contains a record at or after the
// alert time, no matter the record/alert interleaving.
func TestPropertyTrustedPredatesAlert(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRecorder(0.5 + rng.Float64())
		tm := 0.0
		var alertAt float64 = -1
		for i := 0; i < 200; i++ {
			tm += 0.02 + rng.Float64()*0.05
			record(r, rec(tm))
			if alertAt < 0 && i > 20 && rng.Float64() < 0.02 {
				alertAt = tm
				r.OnAlert()
				break
			}
		}
		if alertAt < 0 {
			return true
		}
		// Records are kept in time order, so the trusted window's last
		// record is its latest.
		last, ok := r.LatestTrusted()
		return ok && last.T <= alertAt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a completed quiet window is always available once enough time
// has passed, and memory is bounded by two windows of samples.
func TestPropertyMemoryBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		window := 0.5 + rng.Float64()
		r := NewRecorder(window)
		dt := 0.01
		n := 500 + rng.Intn(500)
		for i := 0; i < n; i++ {
			record(r, rec(float64(i)*dt))
		}
		maxPerWindow := int(window/dt) + 2
		return r.MemoryBytes() <= 2*maxPerWindow*recordBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// mallocs counts the heap allocations f makes, the way
// testing.AllocsPerRun does but without its warm-up call.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRecordZeroAllocSecondWindow: the first rotation has no
// buffer to recycle, so it allocates the new current window at the
// capacity of the window it promotes. Filling that second window then
// appends without growing.
func TestRecordZeroAllocSecondWindow(t *testing.T) {
	const dt = 0.01
	r := NewRecorder(1.0)
	i := 0
	for ; ; i++ {
		if _, ok := r.LatestTrusted(); ok {
			break
		}
		record(r, rec(float64(i)*dt))
	}
	// Record i−1 rotated the first window, of i−1 records, and opened the
	// second.
	first := i - 1
	if n := mallocs(func() {
		for k := 1; k < first; k++ {
			record(r, rec(float64(i+k-1)*dt))
		}
	}); n != 0 {
		t.Errorf("filling the second window allocated %d times, want 0", n)
	}
	if last, _ := r.LatestTrusted(); last != rec(float64(first-1)*dt) {
		t.Fatalf("second window rotated early: latest trusted record at t=%v", last.T)
	}
}

// TestRecordInputZeroAllocAfterFirstWindowAlert: an alert in the
// first window promotes it with no buffer to recycle; the input-only
// records that follow go into a buffer of the promoted window's capacity.
func TestRecordInputZeroAllocAfterFirstWindowAlert(t *testing.T) {
	const dt = 0.01
	const promoted = 50
	r := NewRecorder(1.0)
	for i := 0; i < promoted; i++ {
		record(r, rec(float64(i)*dt))
	}
	r.OnAlert()
	if last, _ := r.LatestTrusted(); last != rec(float64(promoted-1)*dt) {
		t.Fatalf("alert promoted a window ending at t=%v", last.T)
	}
	if n := mallocs(func() {
		for k := 0; k < promoted; k++ {
			r.RecordInput(float64(50+k)*dt, vehicle.Input{Thrust: 1})
		}
	}); n != 0 {
		t.Errorf("%d input-only records allocated %d times, want 0", promoted, n)
	}
}
