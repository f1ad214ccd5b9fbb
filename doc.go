// Package repro is a from-scratch Go reproduction of "Diagnosis-guided
// Attack Recovery for Securing Robotic Vehicles from Sensor Deception
// Attacks" (the DeLorean framework): a staged defense pipeline — attack
// detection, factor-graph attack diagnosis, historic-states
// checkpointing, state reconstruction, targeted LQR attack recovery, and
// a recovery-exit monitor, wired by an explicit recovery-mode FSM — for
// simulated quadcopters and ground rovers. The paper's baselines (SSR,
// PID-Piper, LQR-O) are alternative stage compositions in the same
// pipeline, and a benchmark harness regenerates every table and figure
// of the paper's evaluation.
//
// The mission harness (internal/sim) reads its measurements through the
// sensors.Source seam: the simulator suite (sim.SimSource), a recorded
// on-disk trace (internal/source with internal/trace's versioned
// format), or externally supplied multi-rate per-sensor streams
// time-aligned by source.Bus. Because the closed loop is a
// deterministic function of the measurement stream and the seed, a
// recorded mission replays bit-identically — CI replays a committed
// trace and diffs the run report byte for byte.
//
// The same evaluator runs as a long-lived service: cmd/delorean-server
// exposes missions and seed-sweep experiments over an HTTP JSON API
// (internal/service) with NDJSON result streaming, bounded queues with
// backpressure, per-tenant quotas, and graceful drain. Determinism
// survives the service boundary — the same request body streams
// byte-identical bytes at any pool size, and CI's service-smoke gate
// replays the committed trace over real HTTP against the same golden.
//
// Every execution path — experiment sweeps, the service pool, and the
// shared-cache fleet executor — dispatches through one engine seam
// (internal/engine): pre-drawn seeded jobs in, submission-order results
// and telemetry out. On top of it, internal/campaign runs declarative
// Monte-Carlo studies (grid or random sweeps over profiles, strategies,
// attack widths, onset, wind, and δ-scale) partitioned into
// checkpointable shards: each finished shard's partial report persists
// atomically, an interrupted study resumes by skipping completed
// shards, and shard reports merge exactly — the study bytes are
// invariant to shard count, worker count, engine choice, and
// interruption history.
//
// See README.md for a map of the packages, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for
// paper-vs-measured results.
package repro
