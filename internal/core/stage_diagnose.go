package core

import (
	"repro/internal/diagnosis"
	"repro/internal/sensors"
)

// The triage stage implementations. Each wraps the pipeline's diagnosis
// technique (cfg.Diagnoser, default the DeLorean factor-graph diagnoser)
// with one isolation policy — the policy, not the technique, is what
// differs between the compared strategies (§5.1).

// techniqueTriage is the shared adapter over the diagnosis technique.
type techniqueTriage struct {
	p *Pipeline
}

func (s techniqueTriage) Observe(ref, meas sensors.PhysState) { s.p.diagnoser.Observe(ref, meas) }
func (s techniqueTriage) Reference() diagnosis.Reference      { return s.p.diagnoser.Reference() }
func (s techniqueTriage) Reset()                              { s.p.diagnoser.Reset() }

// targetedTriage isolates exactly the diagnosed sensors (DeLorean).
type targetedTriage struct{ techniqueTriage }

func (s targetedTriage) Triage() (diagnosed, isolate sensors.TypeSet) {
	diagnosed = s.p.diagnoser.Diagnose()
	return diagnosed, diagnosed
}

// worstCaseTriage isolates every sensor on any non-empty verdict
// (LQR-O's worst-case assumption).
type worstCaseTriage struct{ techniqueTriage }

func (s worstCaseTriage) Triage() (diagnosed, isolate sensors.TypeSet) {
	diagnosed = s.p.diagnoser.Diagnose()
	if diagnosed.Len() == 0 {
		return diagnosed, 0
	}
	return diagnosed, sensors.All
}

// toleratingTriage never isolates: SSR and PID-Piper tolerate the attack
// with model-derived state rather than masking sensors.
type toleratingTriage struct{ techniqueTriage }

func (s toleratingTriage) Triage() (diagnosed, isolate sensors.TypeSet) {
	return s.p.diagnoser.Diagnose(), 0
}
