package telemetry

import "sync"

// Collector folds per-job Missions into per-experiment aggregates. The
// executor (internal/engine) feeds it in its deterministic reduce, in
// submission order, and experiments run sequentially, so aggregation order — and
// therefore every float sum in the report — is independent of the worker
// count. A nil *Collector is a valid no-op sink.
//
// The mutex exists for safety, not for ordering: correctness of the
// report's byte-identity relies on the callers' sequential discipline.
type Collector struct {
	mu      sync.Mutex
	order   []*ExperimentReport
	byName  map[string]*ExperimentReport
	current *ExperimentReport
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byName: make(map[string]*ExperimentReport)}
}

// Begin switches the collector to the named experiment group, creating it
// on first use. Repeated Begin calls with the same name reuse the group.
func (c *Collector) Begin(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.current = c.group(name)
}

// group returns (creating if needed) the named aggregate. Callers hold mu.
func (c *Collector) group(name string) *ExperimentReport {
	if g, ok := c.byName[name]; ok {
		return g
	}
	g := &ExperimentReport{
		Name:      name,
		Detection: DetectionStats{LatencyTicks: NewHistogram(DefaultLatencyBounds()...)},
	}
	c.byName[name] = g
	c.order = append(c.order, g)
	return g
}

// Add folds one mission's telemetry into the current experiment group.
// Missions arriving before any Begin land in an "unattributed" group.
func (c *Collector) Add(m *Mission) {
	if c == nil || m == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.current
	if g == nil {
		g = c.group("unattributed")
		c.current = g
	}
	g.Jobs++
	if m.Outcome.Success {
		g.Succeeded++
	}
	if m.Outcome.Crashed {
		g.Crashed++
	}
	if m.Outcome.Stalled {
		g.Stalled++
	}
	g.Ticks += int64(m.Ticks)
	g.Events += len(m.Events)
	g.Counters.Add(m.Counters)
	g.Stages.Add(m.Stages)

	if m.Outcome.AttackMounted {
		g.AttackedJobs++
		if m.DetectionLatencyTicks >= 0 {
			g.Detection.Detected++
			g.Detection.LatencyTicks.Observe(int64(m.DetectionLatencyTicks))
		} else {
			g.Detection.Undetected++
		}
		if m.Outcome.DiagnosedDuringAttack {
			g.Diagnosis.TruePositives++
		} else {
			g.Diagnosis.FalseNegatives++
		}
		if len(g.FirstAttackedTrace) == 0 {
			g.FirstAttackedTrace = append([]Event(nil), m.Events...)
		}
	} else {
		if m.Counters.RecoveryEpisodes > 0 {
			g.Diagnosis.FalsePositives++
		} else {
			g.Diagnosis.TrueNegatives++
		}
	}
}

// ObserveRMSD folds one recovery-RMSD value into the current group.
func (c *Collector) ObserveRMSD(v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current == nil {
		c.current = c.group("unattributed")
	}
	c.current.RecoveryRMSD.observe(v)
}

// Report assembles the versioned run report: per-experiment entries in
// Begin order plus merged totals.
func (c *Collector) Report(meta Meta) (*Report, error) {
	if c == nil {
		return &Report{Version: ReportVersion, Meta: meta}, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := &Report{Version: ReportVersion, Meta: meta}
	totals := ExperimentReport{
		Name:      "totals",
		Detection: DetectionStats{LatencyTicks: NewHistogram(DefaultLatencyBounds()...)},
	}
	for _, g := range c.order {
		e := *g
		// Deep-copy the mutable aggregates so the rendered report is a
		// snapshot.
		e.Detection.LatencyTicks = g.Detection.LatencyTicks.Clone()
		e.FirstAttackedTrace = append([]Event(nil), g.FirstAttackedTrace...)
		e.finalize()
		rep.Experiments = append(rep.Experiments, e)
		if err := totals.accumulate(g); err != nil {
			return nil, err
		}
	}
	totals.finalize()
	rep.Totals = totals
	return rep, nil
}
