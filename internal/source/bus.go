package source

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/sensors"
)

// StreamSample is one timestamped reading of a single sensor's channels,
// ordered as sensors.StatesOf(Type).
type StreamSample struct {
	T      float64
	Values []float64
}

// Stream is one independent per-sensor stream: a sensor type's readings
// at that sensor's own rate, sorted by time. Different streams need not
// share timestamps or rates — the bus aligns them.
type Stream struct {
	Type    sensors.Type
	Samples []StreamSample
}

// Window annotates an attack interval [Start, End) on the bus, with the
// sensor types it targets.
type Window struct {
	Start, End float64
	Targets    sensors.TypeSet
}

// Bus time-aligns multiple independent per-sensor streams into per-tick
// PS frames, using the checkpoint layer's multi-rate alignment (§4.2):
// the densest stream sets the target grid, and slower streams
// duplicate-last onto it. Between grid points — and on the mission's own
// finer tick grid — each channel holds its latest value, exactly like the
// onboard suite holds a sensor between refreshes. This is the seam an
// external or live feed plugs into: deliver each sensor's readings at its
// native rate and the mission consumes aligned frames.
//
// Channels of sensor types with no stream hold zero for the whole
// mission; pass every type you have. A Bus is a single-mission cursor —
// construct one per job.
type Bus struct {
	grid    []float64
	states  []sensors.PhysState
	cursor  int
	attacks []Window
}

// NewBus aligns the streams and returns the bus. Streams must be
// non-empty, sorted by time, carry exactly the channel count of their
// sensor type, and name each type at most once. Attack windows are
// optional annotations carried through to the mission's TP/FP accounting.
func NewBus(streams []Stream, attacks []Window) (*Bus, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("source: bus needs at least one stream")
	}
	byChannel := make(map[string][]checkpoint.Sample, len(streams)*4)
	var seen sensors.TypeSet
	for _, st := range streams {
		channels := sensors.StatesOf(st.Type)
		if channels == nil {
			return nil, fmt.Errorf("source: bus stream has unknown sensor type %d", int(st.Type))
		}
		if seen.Has(st.Type) {
			return nil, fmt.Errorf("source: duplicate bus stream for %v", st.Type)
		}
		seen.Add(st.Type)
		if len(st.Samples) == 0 {
			return nil, fmt.Errorf("source: bus stream for %v is empty", st.Type)
		}
		if !sort.SliceIsSorted(st.Samples, func(i, j int) bool {
			return st.Samples[i].T < st.Samples[j].T
		}) {
			return nil, fmt.Errorf("source: bus stream for %v is not sorted by time", st.Type)
		}
		for si, s := range st.Samples {
			if len(s.Values) != len(channels) {
				return nil, fmt.Errorf("source: bus stream for %v sample %d has %d values, want %d",
					st.Type, si, len(s.Values), len(channels))
			}
		}
		for ci, idx := range channels {
			col := make([]checkpoint.Sample, len(st.Samples))
			for si, s := range st.Samples {
				col[si] = checkpoint.Sample{T: s.T, V: s.Values[ci]}
			}
			byChannel[idx.String()] = col
		}
	}

	grid, aligned := checkpoint.AlignStreams(byChannel)
	states := make([]sensors.PhysState, len(grid))
	for _, st := range streams {
		for _, idx := range sensors.StatesOf(st.Type) {
			col := aligned[idx.String()]
			for i := range states {
				states[i][idx] = col[i]
			}
		}
	}
	return &Bus{grid: grid, states: states, attacks: attacks}, nil
}

// Sample returns the latest aligned frame at or before tick.T (the first
// frame when tick.T precedes the grid), annotated with any attack window
// covering tick.T.
func (b *Bus) Sample(tick sensors.Tick) (sensors.Reading, error) {
	for b.cursor+1 < len(b.grid) && b.grid[b.cursor+1] <= tick.T {
		b.cursor++
	}
	rd := sensors.Reading{State: b.states[b.cursor]}
	for _, w := range b.attacks {
		if tick.T >= w.Start && tick.T < w.End {
			rd.AttackActive = true
			rd.AttackTargets |= w.Targets
		}
	}
	return rd, nil
}

// AttackMounted reports whether any attack window is annotated.
func (b *Bus) AttackMounted() bool { return len(b.attacks) > 0 }

// Grid returns the aligned target timestamps (the densest stream's).
func (b *Bus) Grid() []float64 { return b.grid }
