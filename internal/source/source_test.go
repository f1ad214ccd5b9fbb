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
