package lint

import "repro/internal/sensors"

// Module-specific analyzer configuration. The suite is tuned to this
// repository: the canonical physical-state vocabulary lives in
// internal/sensors, deterministic replay covers the sim/experiment/
// mission/core pipeline, and error discipline is enforced across all of
// internal/.
const (
	modulePath    = "repro"
	sensorsPath   = modulePath + "/internal/sensors"
	clockPath     = modulePath + "/internal/clock"
	telemetryPath = modulePath + "/internal/telemetry"
	corePath      = modulePath + "/internal/core"
	fleetPath     = modulePath + "/internal/fleet"
	enginePath    = modulePath + "/internal/engine"
	campaignPath  = modulePath + "/internal/campaign"
	simPath       = modulePath + "/internal/sim"
	ekfPath       = modulePath + "/internal/ekf"
	diagnosisPath = modulePath + "/internal/diagnosis"
	tracePath     = modulePath + "/internal/trace"
	sourcePath    = modulePath + "/internal/source"
	servicePath   = modulePath + "/internal/service"
	attackPath    = modulePath + "/internal/attack"
	benchPath     = modulePath + "/bench"
)

// DefaultAnalyzers returns the project's full analyzer suite, tuned to
// DeLorean's invariants. The per-package analyzers (floatcmp, stateindex,
// exhaustive, errdrop, determinism, mapiter, sharedwrite) run on each
// package independently; the whole-program analyzers (hotalloc, puretick)
// run once over the call graph of everything loaded. Determinism and
// puretick deliberately overlap: determinism is a package-scoped fence
// around the replay-sensitive directories (it also covers code that is
// not yet wired into the tick path), while puretick is a reachability
// proof with no allowlist — code moved out of the fenced packages stays
// covered as long as the tick path calls it.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		FloatCmp(),
		StateIndex(StateIndexConfig{
			SensorsPath: sensorsPath,
			NumStates:   int(sensors.NumStates),
		}),
		Exhaustive(ExhaustiveConfig{
			TypePrefix: modulePath + "/",
			Exclude: map[string][]string{
				// NumStates is the PS length sentinel, not a state.
				sensorsPath + ".StateIndex": {"NumStates"},
				// NumStages is the stage-count sentinel, not a pipeline
				// stage; core.Mode (the pipeline FSM) and telemetry.Kind
				// stay fully covered.
				telemetryPath + ".Stage": {"NumStages"},
			},
		}),
		ErrDrop(modulePath + "/internal/"),
		Hotalloc(defaultHotalloc()),
		Hotcopy(defaultHotcopy()),
		Determinism(DeterminismConfig{
			Restricted: []string{
				simPath,
				modulePath + "/internal/experiments",
				modulePath + "/internal/mission",
				corePath,
				// The process-wide shared-cache registry every mission
				// reads is part of the same byte-identity surface as the
				// engine.
				fleetPath,
				telemetryPath,
				// The trace codec and the replay/bus sources are part of
				// the byte-identity surface: a recorded mission must decode
				// and replay to the same bytes forever.
				tracePath,
				sourcePath,
				// The mission service streams result bytes that must be
				// identical at any pool size: wall-clock reads go through
				// the clock seam (quota refill) and randomness through
				// explicitly seeded rngs (experiment seed pre-draw).
				servicePath,
				// The executor releases and reduces every sweep's results in
				// submission order; the campaign layer draws its job list
				// from the spec seed and merges shard reports byte-exactly.
				// Neither may consult the wall clock or unseeded rand, or
				// shard layout would leak into study bytes.
				enginePath,
				campaignPath,
			},
			ClockPath: clockPath,
		}),
		Puretick(PuretickConfig{
			Roots: []FuncRef{
				corePath + ":Pipeline.Tick",
				// The executor's in-order telemetry reduce.
				enginePath + ":ReduceTelemetry",
				// One control period: the whole in-mission step path,
				// which every executor reaches through RunContext (whose
				// cancellation select sits outside Step): no select, no
				// clock, no global rand anywhere a Step can reach.
				simPath + ":Mission.Step",
			},
			ClockPath: clockPath,
			Sinks:     defaultSinks(),
		}),
		MapIter(MapIterConfig{Sinks: defaultSinks()}),
		SharedWrite(SharedWriteConfig{
			Runners: []FuncRef{
				// The pool's callback primitive: every mission callback
				// runs on its shards, so its writes are held to the
				// per-index-slot confinement.
				enginePath + ":Pool.submit",
			},
		}),
	}
}

// defaultSinks are the order-sensitive output package prefixes: anything
// formatted (fmt), recorded in the run report (telemetry), serialized
// into an on-disk trace (trace), streamed over the mission service's
// NDJSON responses (service), or persisted into a study checkpoint
// (campaign) must not observe map iteration order.
func defaultSinks() []string {
	return []string{"fmt", telemetryPath, tracePath, servicePath, campaignPath}
}

// defaultHotalloc declares the roots and cold cut points of the module's
// zero-allocation hot set. The hot set itself is derived by call-graph
// reachability — the per-tick defense pipeline entry plus the diagnosis
// inference of every diagnoser, minus the sanctioned episodic/lazy paths
// below. There is no hand-maintained function list: extract a helper
// from Tick's callees and it is hot automatically.
func defaultHotalloc() HotallocConfig {
	return HotallocConfig{
		MatPath: modulePath + "/internal/mat",
		Roots: []FuncRef{
			corePath + ":Pipeline.Tick",
			diagnosisPath + ":DeLorean.Diagnose",
			diagnosisPath + ":RA.Diagnose",
			// One control period: a nominal Step must not allocate, or
			// per-tick garbage scales with mission length.
			simPath + ":Mission.Step",
		},
		// Episodic or one-time paths sanctioned to allocate. Each runs per
		// alert episode or per configuration change, never per tick, and
		// owns the pipeline's cold allocations (triage snapshots, widened
		// diagnosis events, lazy workspace growth).
		Cold: []FuncRef{
			corePath + ":Pipeline.triage",
			corePath + ":Pipeline.widenDiagnosis",
			// A re-admission event renders the sensor's name, once per
			// re-admission; the re-validation loop around it is hot.
			corePath + ":Pipeline.readmit",
			corePath + ":Pipeline.exitRecovery",
			corePath + ":Pipeline.triggerDetail",
			// The first window promotion allocates the next window's
			// buffer, once per checkpoint recorder.
			modulePath + "/internal/checkpoint:recycle",
			// Shared-schedule cold paths: extending the covariance
			// schedule clones each new step once per (profile, dt, cycle)
			// process-wide, and falling off the shared path reconstructs
			// covariance once per mission at most.
			ekfPath + ":Schedule.extendTo",
			ekfPath + ":Schedule.seedPost",
			ekfPath + ":Filter.detachShared",
			// Terminal error paths of the step path: each runs at most
			// once per mission, never on the nominal per-tick path.
			simPath + ":srcErr",
			sourcePath + ":exhaustedErr",
			sourcePath + ":desyncErr",
		},
	}
}

// defaultHotcopy polices hotalloc's hot set for large by-value copies.
func defaultHotcopy() HotcopyConfig {
	hot := defaultHotalloc()
	return HotcopyConfig{
		Roots: hot.Roots,
		Cold:  hot.Cold,
		Allow: hotcopyRatchet,
	}
}

// hotcopyRatchet names the hot functions that may keep a large by-value
// copy, each with the reason it stays. It may only shrink: hotcopy
// reports an entry that no longer produces a finding.
var hotcopyRatchet = []CopyAllowance{
	// The sensors.Source boundary: bench/ implements the interface and
	// calls it by value, so its Tick-in, Reading-out signature stays; each
	// tick copies the frame once there.
	{benchPath + ":timingSource.Sample", "bench/ implements sensors.Source by value"},
	{simPath + ":SimSource.Sample", "implements sensors.Source, whose value signature bench/ implements"},
	{sourcePath + ":Recorder.Sample", "implements sensors.Source, whose value signature bench/ implements"},
	{sourcePath + ":Replay.Sample", "implements sensors.Source, whose value signature bench/ implements"},
	{corePath + ":Pipeline.Tick", "bench/ calls Tick with a value frame; it copies it once into the pipeline and runs TickFrom"},
	// Snapshot accessors: the caller keeps the value.
	{corePath + ":Pipeline.Believed", "snapshot accessor; bench/ reads it by value"},
	{corePath + ":Pipeline.LastError", "snapshot accessor; the calibration run keeps every fifth tick's vector"},
	// Left for later.
	{attackPath + ":SDA.BiasAt", "attacked ticks only; summing Scale's product in place would give arm64 a new multiply-add to fuse"},
	{attackPath + ":SDA.BiasAtPos", "attacked ticks only; see SDA.BiasAt"},
	{attackPath + ":Schedule.BiasAtPos", "attacked ticks only; see SDA.BiasAt"},
	{sensorsPath + ":Bias.Scale", "attacked ticks only; see attack SDA.BiasAt"},
	{modulePath + "/internal/recovery:roverSystem.solve", "the fixed-point Riccati loop that SDA replaces (ROADMAP item 1)"},
}

// AnalyzerByName returns the named analyzer from the default suite, or
// nil when unknown.
func AnalyzerByName(name string) *Analyzer {
	for _, az := range DefaultAnalyzers() {
		if az.Name == name {
			return az
		}
	}
	return nil
}
