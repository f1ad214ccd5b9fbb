package source

import (
	"errors"
	"math"
	"testing"

	"repro/internal/sensors"
	"repro/internal/trace"
)

func testTrace(n int, dt float64) *trace.Trace {
	tr := &trace.Trace{Header: trace.Header{DT: dt, AttackMounted: true}}
	t := 0.0
	for i := 0; i < n; i++ {
		var f trace.Frame
		f.T = t
		f.State[sensors.SX] = float64(i)
		f.State[sensors.SBaroAlt] = 10 + float64(i)*0.5
		if i >= n/2 {
			f.Flags = trace.FlagAttackActive
			f.Targets = sensors.NewTypeSet(sensors.GPS)
		}
		tr.Frames = append(tr.Frames, f)
		t += dt
	}
	return tr
}

func TestReplayDeliversFrames(t *testing.T) {
	tr := testTrace(10, 0.01)
	r := NewReplay(tr)
	if !r.AttackMounted() {
		t.Error("AttackMounted lost")
	}
	tick := 0.0
	for i := 0; i < 10; i++ {
		rd, err := r.Sample(sensors.Tick{T: tick, DT: 0.01})
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if rd.State[sensors.SX] != float64(i) {
			t.Errorf("frame %d: SX = %v", i, rd.State[sensors.SX])
		}
		wantActive := i >= 5
		if rd.AttackActive != wantActive {
			t.Errorf("frame %d: AttackActive = %v", i, rd.AttackActive)
		}
		if wantActive && !rd.AttackTargets.Has(sensors.GPS) {
			t.Errorf("frame %d: targets = %v", i, rd.AttackTargets)
		}
		tick += 0.01
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
	if _, err := r.Sample(sensors.Tick{T: tick}); !errors.Is(err, ErrExhausted) {
		t.Errorf("got %v, want ErrExhausted", err)
	}
}

func TestReplayDetectsDesync(t *testing.T) {
	r := NewReplay(testTrace(10, 0.01))
	// A mission running on a different grid (wrong DT) must fail on the
	// first mismatched timestamp, not silently feed stale frames.
	if _, err := r.Sample(sensors.Tick{T: 0, DT: 0.02}); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if _, err := r.Sample(sensors.Tick{T: 0.02, DT: 0.02}); !errors.Is(err, ErrDesync) {
		t.Errorf("got %v, want ErrDesync", err)
	}
}

// fixedSource is a deterministic inner source for Recorder tests.
type fixedSource struct{ n int }

func (f *fixedSource) Sample(tick sensors.Tick) (sensors.Reading, error) {
	f.n++
	var rd sensors.Reading
	rd.State[sensors.SY] = float64(f.n)
	rd.AttackActive = f.n > 2
	rd.AttackTargets = sensors.NewTypeSet(sensors.Baro)
	return rd, nil
}

func (f *fixedSource) AttackMounted() bool { return true }

func TestRecorderTees(t *testing.T) {
	rec := NewRecorder(&fixedSource{})
	tick := 0.0
	for i := 0; i < 4; i++ {
		rd, err := rec.Sample(sensors.Tick{T: tick, DT: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if rd.State[sensors.SY] != float64(i+1) {
			t.Errorf("reading %d passed through wrong: %v", i, rd.State[sensors.SY])
		}
		tick += 0.5
	}
	tr := rec.Trace([]trace.MetaEntry{{Key: "k", Value: "v"}})
	if len(tr.Frames) != 4 {
		t.Fatalf("recorded %d frames, want 4", len(tr.Frames))
	}
	if math.Float64bits(tr.Header.DT) != math.Float64bits(0.5) {
		t.Errorf("header DT = %v", tr.Header.DT)
	}
	if !tr.Header.AttackMounted {
		t.Error("header AttackMounted not delegated")
	}
	if v, ok := tr.Header.MetaValue("k"); !ok || v != "v" {
		t.Error("meta not carried")
	}
	if tr.Frames[0].AttackActive() || !tr.Frames[3].AttackActive() {
		t.Error("attack flags recorded wrong")
	}
	if !tr.Frames[3].Targets.Has(sensors.Baro) {
		t.Error("targets not recorded")
	}
	// Replaying the recorded trace reproduces the inner source's stream.
	r := NewReplay(tr)
	rd, err := r.Sample(sensors.Tick{T: 0, DT: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rd.State[sensors.SY] != 1 {
		t.Errorf("replayed SY = %v, want 1", rd.State[sensors.SY])
	}
}

func TestBusAlignsMultiRateStreams(t *testing.T) {
	// GPS at 1 Hz, barometer at 4 Hz: the barometer sets the grid and the
	// GPS duplicates-last onto it (§4.2 alignment semantics).
	gps := Stream{Type: sensors.GPS}
	for i := 0; i < 3; i++ {
		gps.Samples = append(gps.Samples, StreamSample{
			T:      float64(i),
			Values: []float64{float64(i * 10), 0, 0, 1, 0, 0},
		})
	}
	baro := Stream{Type: sensors.Baro}
	for i := 0; i < 12; i++ {
		baro.Samples = append(baro.Samples, StreamSample{
			T:      float64(i) * 0.25,
			Values: []float64{50 + float64(i)},
		})
	}
	bus, err := NewBus([]Stream{gps, baro}, []Window{
		{Start: 1.0, End: 2.0, Targets: sensors.NewTypeSet(sensors.GPS)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bus.Grid()) != 12 {
		t.Fatalf("grid = %d points, want 12 (densest stream)", len(bus.Grid()))
	}
	if !bus.AttackMounted() {
		t.Error("bus with windows must report AttackMounted")
	}

	// Walk a finer mission grid (dt=0.1) over the bus.
	type probe struct {
		t          float64
		wantX      float64
		wantAlt    float64
		wantActive bool
	}
	for _, p := range []probe{
		{t: 0.0, wantX: 0, wantAlt: 50, wantActive: false},
		{t: 0.9, wantX: 0, wantAlt: 53, wantActive: false}, // baro refreshed 3×, GPS holding
		{t: 1.0, wantX: 10, wantAlt: 54, wantActive: true}, // GPS refresh + attack window opens
		{t: 1.9, wantX: 10, wantAlt: 57, wantActive: true}, // window closes at 2.0
		{t: 2.5, wantX: 20, wantAlt: 60, wantActive: false},
		{t: 9.0, wantX: 20, wantAlt: 61, wantActive: false}, // past both streams: hold last
	} {
		// Bus cursors are single-mission; rebuild to probe out of order.
		// Ticks are computed as k*dt (not accumulated) so probe times land
		// on exact grid values, mirroring how sim.RunContext steps time.
		b, err := NewBus([]Stream{gps, baro}, []Window{{Start: 1.0, End: 2.0, Targets: sensors.NewTypeSet(sensors.GPS)}})
		if err != nil {
			t.Fatal(err)
		}
		var rd sensors.Reading
		steps := int(p.t/0.1 + 0.5)
		for k := 0; k <= steps; k++ {
			if rd, err = b.Sample(sensors.Tick{T: float64(k) * 0.1, DT: 0.1}); err != nil {
				t.Fatal(err)
			}
		}
		if rd.State[sensors.SX] != p.wantX {
			t.Errorf("t=%.2f: SX = %v, want %v", p.t, rd.State[sensors.SX], p.wantX)
		}
		if rd.State[sensors.SBaroAlt] != p.wantAlt {
			t.Errorf("t=%.2f: alt = %v, want %v", p.t, rd.State[sensors.SBaroAlt], p.wantAlt)
		}
		if rd.AttackActive != p.wantActive {
			t.Errorf("t=%.2f: AttackActive = %v, want %v", p.t, rd.AttackActive, p.wantActive)
		}
		if p.wantActive && !rd.AttackTargets.Has(sensors.GPS) {
			t.Errorf("t=%.2f: targets = %v", p.t, rd.AttackTargets)
		}
	}
}

func TestBusRejectsBadStreams(t *testing.T) {
	ok := Stream{Type: sensors.Baro, Samples: []StreamSample{{T: 0, Values: []float64{1}}}}
	for _, tt := range []struct {
		name    string
		streams []Stream
	}{
		{"no streams", nil},
		{"unknown type", []Stream{{Type: sensors.Type(99), Samples: ok.Samples}}},
		{"duplicate type", []Stream{ok, ok}},
		{"empty stream", []Stream{{Type: sensors.Baro}}},
		{"unsorted", []Stream{{Type: sensors.Baro, Samples: []StreamSample{
			{T: 1, Values: []float64{1}}, {T: 0, Values: []float64{2}},
		}}}},
		{"wrong channel count", []Stream{{Type: sensors.GPS, Samples: []StreamSample{
			{T: 0, Values: []float64{1, 2}},
		}}}},
	} {
		if _, err := NewBus(tt.streams, nil); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}
