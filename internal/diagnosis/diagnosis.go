// Package diagnosis implements the paper's core contribution: graph-based
// probabilistic attack diagnosis (§4.1). When the attack detector raises
// an alert, the diagnoser inspects the error inflation in all of the RV's
// physical states over the last consecutive diagnosis steps and performs
// causal analysis with per-sensor factor graphs (Eq. 2–4) to identify
// which sensors the SDA targets. Sensors whose states' factor-graph MLE is
// Malicious are flagged.
//
// The package also implements the three residual-analysis (RA) baselines
// the paper compares against (§5.1): Savior-RA, PID-Piper-RA, and EKF-RA,
// which extend the respective detectors' single-step residual check to all
// physical states. Their structural weaknesses — single-step comparison
// and reliance on the fused (attack-contaminated) state estimate — are
// reproduced faithfully.
package diagnosis

import (
	"repro/internal/fg"
	"repro/internal/sensors"
)

// Delta holds the per-state error thresholds δ of Table 3. A zero entry
// marks a channel that is not monitored (e.g. altitude channels on a
// rover).
type Delta [sensors.NumStates]float64

// Diagnoser identifies the sensors targeted by an SDA. The core framework
// feeds it one (predicted, observed) PS pair per diagnosis step:
//
//   - predicted: the attack-free reference evolution of the physical
//     states (DeLorean anchors this to trustworthy historic states and the
//     dynamics model; the RA baselines use the live fused estimate).
//   - observed: the states derived directly from the (possibly attacked)
//     sensors.
type Diagnoser interface {
	// Name identifies the technique in result tables.
	Name() string
	// Reference selects which reference states the framework must feed as
	// `predicted`: DeLorean uses the attack-free anchored model reference
	// (independent of the possibly-contaminated fusion), the RA baselines
	// use the live fused estimate their source detectors operate on.
	Reference() Reference
	// Observe ingests one diagnosis step. The states are passed by
	// pointer (a call through an interface copies every value argument);
	// they escape, so callers keep them in long-lived structs.
	Observe(predicted, observed *sensors.PhysState)
	// Diagnose returns the set of sensors believed under attack given the
	// observations so far (empty set: no sensor implicated — a detector
	// false alarm is masked).
	Diagnose() sensors.TypeSet
	// Reset clears observation history.
	Reset()
}

// Reference identifies the reference-state source a diagnoser compares
// observations against.
type Reference int

// Reference sources.
const (
	// RefShadow is the attack-free model reference (anchored to
	// trustworthy history, frozen during alerts).
	RefShadow Reference = iota + 1
	// RefFused is the live fused EKF estimate (contaminated under attack —
	// the structural weakness of RA diagnosis).
	RefFused
)

// Compile-time interface checks.
var (
	_ Diagnoser = (*DeLorean)(nil)
	_ Diagnoser = (*RA)(nil)
)

// DeLorean is the factor-graph diagnosis of §4.1: it monitors the error
// e_i between the observed and reference physical states across
// consecutive diagnosis steps (the paper's four-state window yields the
// error pair (e_{t−1}, e_t)), and runs MLE inference on per-sensor factor
// graphs built from the Eq. 2 threshold factors.
type DeLorean struct {
	delta Delta

	// errHist is a fixed ring of the most recent error vectors, newest
	// last; nHist counts the valid entries and saturates at histLen.
	// Observe runs every tick, so the window must not allocate.
	errHist [histLen]sensors.PhysState
	nHist   int
	// lastVerdicts are the per-sensor outcomes of the most recent
	// Diagnose call (telemetry evidence); the buffer is reused across
	// calls.
	lastVerdicts []SensorVerdict
	// margBuf is Diagnose's reused destination for batch marginals.
	margBuf []float64

	// graphs are the per-sensor factor graphs, built once at construction.
	// Their threshold factors read the error pair through evidence cells
	// (evPrev/evCur), so Diagnose only stores the current window into the
	// cells and invalidates each graph's inference cache — it never
	// rebuilds graph structure or factor closures. The factor predicate is
	// identical to the rebuilt-per-call form, and the enumeration order is
	// a property of graph structure, so the marginals are bit-identical.
	graphs []sensorGraph
	evPrev sensors.PhysState
	evCur  sensors.PhysState
}

// sensorGraph is one sensor's cached diagnosis graph.
type sensorGraph struct {
	typ   sensors.Type
	g     *fg.Graph
	nvars int
}

// SensorVerdict is one sensor's diagnosis outcome together with its
// evidence strength — the maximum P(malicious|e) over the sensor's
// monitored physical states.
type SensorVerdict struct {
	Sensor      sensors.Type
	Malicious   bool
	MaxMarginal float64
}

// histLen is the number of consecutive error observations retained: the
// paper monitors the past four states, which yields two consecutive
// pairwise errors (e_{t−1}, e_t).
const histLen = 2

// NewDeLorean returns the FG diagnoser with calibrated thresholds. The
// per-sensor factor graphs over the monitored channels (Table 1) are
// built here, once; their factors read the error evidence through the
// diagnoser's evidence cells.
func NewDeLorean(delta Delta) *DeLorean {
	d := &DeLorean{delta: delta}
	maxVars := 0
	for _, typ := range sensors.AllTypes() {
		g := fg.New()
		nvars := 0
		for _, idx := range sensors.StatesOf(typ) {
			if delta[idx] <= 0 {
				continue // unmonitored channel on this RV
			}
			v := g.AddVariable(idx.String())
			g.AddFactor(
				"f_"+idx.String(),
				fg.ThresholdFactorAt(&d.evPrev[idx], &d.evCur[idx], delta[idx]),
				v,
			)
			nvars++
		}
		if nvars == 0 {
			continue // sensor entirely unmonitored on this RV
		}
		d.graphs = append(d.graphs, sensorGraph{typ: typ, g: g, nvars: nvars})
		if nvars > maxVars {
			maxVars = nvars
		}
	}
	d.margBuf = make([]float64, maxVars)
	return d
}

// Name implements Diagnoser.
func (d *DeLorean) Name() string { return "DeLorean" }

// Reference implements Diagnoser: DeLorean diagnoses against the
// attack-free anchored model reference.
func (d *DeLorean) Reference() Reference { return RefShadow }

// Observe records the error vector for one diagnosis step, shifting the
// fixed window in place (no allocation — this runs every tick).
func (d *DeLorean) Observe(predicted, observed *sensors.PhysState) {
	if d.nHist == histLen {
		copy(d.errHist[:], d.errHist[1:])
	} else {
		d.nHist++
	}
	sensors.AbsDiffInto(&d.errHist[d.nHist-1], observed, predicted)
}

// Diagnose runs MLE inference on the cached per-sensor factor graphs
// over that sensor's physical states (Table 1) and flags the sensor if
// any state's MLE outcome is Malicious (P(s=malicious|e) > 0.5, Eq. 4).
// It stores the error window into the evidence cells the factors read
// and invalidates each graph's inference cache; graph structure is fixed
// since construction, so steady-state diagnosis allocates nothing beyond
// the returned set. The per-sensor verdicts with their marginals are
// retained for Verdicts.
func (d *DeLorean) Diagnose() sensors.TypeSet {
	flagged := sensors.NewTypeSet()
	d.lastVerdicts = d.lastVerdicts[:0]
	if d.nHist < histLen {
		return flagged
	}
	d.evPrev = d.errHist[histLen-2]
	d.evCur = d.errHist[histLen-1]

	for i := range d.graphs {
		sg := &d.graphs[i]
		sg.g.Invalidate() // evidence cells changed under the factors
		verdict := SensorVerdict{Sensor: sg.typ}
		for _, p := range sg.g.MarginalsInto(d.margBuf[:sg.nvars]) {
			if p > verdict.MaxMarginal {
				verdict.MaxMarginal = p
			}
			if p > 0.5 {
				verdict.Malicious = true
			}
		}
		if verdict.Malicious {
			flagged.Add(sg.typ)
		}
		d.lastVerdicts = append(d.lastVerdicts, verdict)
	}
	return flagged
}

// Verdicts returns the per-sensor outcomes of the most recent Diagnose
// call, in canonical sensor order, covering the monitored sensors only.
// Empty until Diagnose has run with a full observation window.
func (d *DeLorean) Verdicts() []SensorVerdict {
	out := make([]SensorVerdict, len(d.lastVerdicts))
	copy(out, d.lastVerdicts)
	return out
}

// Reset clears the history, retaining the verdict buffer for reuse.
func (d *DeLorean) Reset() {
	d.nHist = 0
	d.lastVerdicts = d.lastVerdicts[:0]
}

// RAKind selects which detector's residual analysis an RA baseline
// extends.
type RAKind int

// The three RA baselines of Table 4.
const (
	SaviorRA RAKind = iota + 1
	PIDPiperRA
	EKFRA
)

// String names the baseline as in Table 4.
func (k RAKind) String() string {
	switch k {
	case SaviorRA:
		return "Savior-RA"
	case PIDPiperRA:
		return "PID-Piper-RA"
	case EKFRA:
		return "EKF-RA"
	default:
		return "RA"
	}
}

// RA is a residual-analysis diagnosis baseline: it flags a sensor when the
// residual between the fused model estimate and the sensor-derived state
// exceeds a threshold in the last step only (§5.1: "these attack detectors
// analyze residues ... we extend the concept of residual analysis to
// monitor all the physical states"). Unlike DeLorean it has no multi-step
// causal check and its reference states are the live fused estimate, which
// is itself contaminated by the attacked sensors.
type RA struct {
	kind  RAKind
	delta Delta
	// scale adjusts the thresholds relative to δ, modelling the different
	// sensitivity of the three source detectors.
	scale float64

	ePrev, eCur sensors.PhysState
	steps       int
}

// NewRA returns an RA baseline of the given kind with thresholds scaled
// from δ. Savior uses the tightest thresholds (most sensitive, most FPs),
// PID-Piper the loosest, EKF in between, mirroring the relative FP/TP
// ordering in Table 4.
func NewRA(kind RAKind, delta Delta) *RA {
	scale := 1.0
	switch kind {
	case SaviorRA:
		scale = 0.9
	case PIDPiperRA:
		scale = 1.25
	case EKFRA:
		scale = 1.0
	}
	return &RA{kind: kind, delta: delta, scale: scale}
}

// Name implements Diagnoser.
func (r *RA) Name() string { return r.kind.String() }

// Reference implements Diagnoser: RA baselines compare against the live
// fused estimate.
func (r *RA) Reference() Reference { return RefFused }

// Observe records the current residual vector.
func (r *RA) Observe(predicted, observed *sensors.PhysState) {
	r.ePrev = r.eCur
	sensors.AbsDiffInto(&r.eCur, observed, predicted)
	r.steps++
}

// Diagnose flags every sensor with any last-step residual above its
// scaled threshold.
func (r *RA) Diagnose() sensors.TypeSet {
	flagged := sensors.NewTypeSet()
	if r.steps == 0 {
		return flagged
	}
	for _, typ := range sensors.AllTypes() {
		for _, idx := range sensors.StatesOf(typ) {
			th := r.delta[idx] * r.scale
			if th <= 0 {
				continue
			}
			if r.eCur[idx] > th {
				flagged.Add(typ)
				break
			}
		}
	}
	return flagged
}

// Reset clears the residual history.
func (r *RA) Reset() {
	r.ePrev = sensors.PhysState{}
	r.eCur = sensors.PhysState{}
	r.steps = 0
}
