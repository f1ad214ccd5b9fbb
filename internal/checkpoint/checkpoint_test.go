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
	trusted := r.Trusted()
	if trusted == nil {
		t.Fatal("no trusted window after multiple rotations")
	}
	last, ok := r.LatestTrusted()
	if !ok {
		t.Fatal("LatestTrusted failed")
	}
	// The trusted window should be the one before the current; its last
	// record is at the most recent rotation boundary minus one sample.
	if last.T < 1.0 || last.T >= 2.5 {
		t.Errorf("latest trusted at t=%v, want within a completed window", last.T)
	}
	if got := trusted[len(trusted)-1]; got != last {
		t.Error("LatestTrusted disagrees with Trusted()")
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
	if !r.Stopped() {
		t.Error("recorder should be stopped after alert")
	}
	n := r.Len()
	record(r, rec(2.0))
	if r.Len() != n {
		t.Error("record accepted while stopped")
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
	if r.Stopped() {
		t.Error("recorder should run after Resume")
	}
	// Old trusted window survives until a fresh window completes.
	cur, _ := r.LatestTrusted()
	if cur != oldTrusted {
		t.Error("trusted window should survive resume until replaced")
	}
	for i := 0; i < 25; i++ {
		record(r, rec(3.0+float64(i)*0.1))
	}
	fresh, _ := r.LatestTrusted()
	if fresh.T <= oldTrusted.T {
		t.Errorf("trusted window not refreshed after resume: %v", fresh.T)
	}
}

func TestInputsSinceSpansWindows(t *testing.T) {
	r := NewRecorder(1.0)
	for i := 0; i < 25; i++ {
		record(r, rec(float64(i)*0.1))
	}
	anchor, _ := r.LatestTrusted()
	inputs := r.InputsSince(anchor.T)
	if len(inputs) == 0 {
		t.Fatal("no inputs since anchor")
	}
	// First input must be the one immediately after the anchor.
	if inputs[0].Thrust <= anchor.T {
		t.Errorf("first input at %v, want after anchor %v", inputs[0].Thrust, anchor.T)
	}
	// Inputs must be in time order (thrust encodes t).
	for i := 1; i < len(inputs); i++ {
		if inputs[i].Thrust <= inputs[i-1].Thrust {
			t.Fatal("inputs out of order")
		}
	}
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
		for _, record := range r.Trusted() {
			if record.T > alertAt {
				return false
			}
		}
		return true
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
		return r.Len() <= 2*maxPerWindow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAlignStreamsDuplicatesLast(t *testing.T) {
	streams := map[string][]Sample{
		"gyro": {{T: 0, V: 1}, {T: 0.1, V: 2}, {T: 0.2, V: 3}, {T: 0.3, V: 4}},
		"gps":  {{T: 0, V: 10}, {T: 0.25, V: 20}},
	}
	ts, aligned := AlignStreams(streams)
	if len(ts) != 4 {
		t.Fatalf("target grid = %v, want 4 points (gyro)", ts)
	}
	wantGPS := []float64{10, 10, 10, 20}
	for i, v := range aligned["gps"] {
		if v != wantGPS[i] {
			t.Errorf("gps[%d] = %v, want %v", i, v, wantGPS[i])
		}
	}
	// The fast stream aligns to itself unchanged.
	wantGyro := []float64{1, 2, 3, 4}
	for i, v := range aligned["gyro"] {
		if v != wantGyro[i] {
			t.Errorf("gyro[%d] = %v, want %v", i, v, wantGyro[i])
		}
	}
}

func TestAlignStreamsBeforeFirstSample(t *testing.T) {
	streams := map[string][]Sample{
		"fast": {{T: 0, V: 1}, {T: 1, V: 2}, {T: 2, V: 3}},
		"late": {{T: 1.5, V: 42}},
	}
	_, aligned := AlignStreams(streams)
	want := []float64{42, 42, 42}
	for i, v := range aligned["late"] {
		if v != want[i] {
			t.Errorf("late[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestAlignStreamsEmpty(t *testing.T) {
	ts, aligned := AlignStreams(nil)
	if ts != nil || aligned != nil {
		t.Error("empty input should return nils")
	}
}

// Property: aligned streams always have exactly the target grid length,
// and values come from the source stream.
func TestPropertyAlignmentShape(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		streams := make(map[string][]Sample)
		names := []string{"a", "b", "c"}
		for _, name := range names {
			n := 1 + rng.Intn(20)
			s := make([]Sample, n)
			tm := 0.0
			for i := range s {
				tm += 0.01 + rng.Float64()*0.1
				s[i] = Sample{T: tm, V: rng.NormFloat64()}
			}
			streams[name] = s
		}
		ts, aligned := AlignStreams(streams)
		for _, name := range names {
			if len(aligned[name]) != len(ts) {
				return false
			}
			src := make(map[float64]bool, len(streams[name]))
			for _, s := range streams[name] {
				src[s.V] = true
			}
			for _, v := range aligned[name] {
				if !src[v] {
					return false
				}
			}
		}
		return true
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
	for ; r.Trusted() == nil; i++ {
		record(r, rec(float64(i)*dt))
	}
	first := len(r.Trusted())
	if n := mallocs(func() {
		for k := 1; k < first; k++ {
			record(r, rec(float64(i+k-1)*dt))
		}
	}); n != 0 {
		t.Errorf("filling the second window allocated %d times, want 0", n)
	}
	if got := len(r.Trusted()); got != first {
		t.Fatalf("second window rotated early: trusted has %d records, want %d", got, first)
	}
}

// TestRecordInputZeroAllocAfterFirstWindowAlert: an alert in the
// first window promotes it with no buffer to recycle; the input-only
// records that follow go into a buffer of the promoted window's capacity.
func TestRecordInputZeroAllocAfterFirstWindowAlert(t *testing.T) {
	const dt = 0.01
	r := NewRecorder(1.0)
	for i := 0; i < 50; i++ {
		record(r, rec(float64(i)*dt))
	}
	r.OnAlert()
	promoted := len(r.Trusted())
	if n := mallocs(func() {
		for k := 0; k < promoted; k++ {
			r.RecordInput(float64(50+k)*dt, vehicle.Input{Thrust: 1})
		}
	}); n != 0 {
		t.Errorf("%d input-only records allocated %d times, want 0", promoted, n)
	}
}
