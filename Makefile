# Standard developer entry points. `make check` is the full tier-2 gate
# (see scripts/check.sh); the other targets are its individual stages.

GO ?= go

.PHONY: all build test lint race race-runner check bench equiv-gate replay-gate record-corpus serve service-smoke loadtest campaign

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/delint ./...

# The -short gate under race is deliberate; see scripts/check.sh.
race:
	$(GO) test -race -short ./...

# The one list of un-short race passes (scripts/check.sh and CI's
# scheduled race-runner job both run this target): the executor
# (internal/engine: the pool, the runner engine, the equivalence suite)
# and the mission service (drain, backpressure, disconnect,
# determinism), the workers=1-vs-8 determinism sweep, and the pipeline
# FSM with the legacy equivalence suite — the places a data race could
# corrupt results.
race-runner:
	$(GO) test -race -timeout 1800s ./internal/engine ./internal/service
	$(GO) test -race -timeout 1800s -run 'TestParallelDeterminism|TestDeltaForSingleflight|TestReportDeterminism' ./internal/experiments
	$(GO) test -race -timeout 1800s -run 'TestPipelineEquivalence|TestLegalTransition|TestTransition|TestModeSides' ./internal/core
	$(GO) test -race -timeout 1800s -run 'TestTraceTransitions' ./internal/sim

# Pipeline-equivalence gate: reduced experiment suite vs the committed
# pre-refactor golden snapshot, at workers=1 and N.
equiv-gate:
	sh scripts/equiv_gate.sh

# Replay-determinism gate: the committed recorded mission
# (internal/sim/testdata/attack_mission.trace) must replay to the
# committed golden report byte for byte.
replay-gate:
	bash scripts/replay_gate.sh

# Run the mission service locally (see README "Mission service").
serve:
	$(GO) run ./cmd/delorean-server

# Service smoke gate: boot delorean-server, replay the committed corpus
# mission over HTTP, and diff the streamed report against the golden.
service-smoke:
	bash scripts/service_smoke.sh

# Concurrent-load byte-identity gate: N identical submissions must yield
# byte-identical NDJSON responses, then the server must drain cleanly.
loadtest:
	bash scripts/loadtest.sh

# Campaign smoke gate: the committed tiny grid study must reproduce its
# golden byte for byte — monolithic, sharded+checkpointed, and across a
# -halt-after interrupt followed by -resume.
campaign:
	bash scripts/campaign_smoke.sh

# Regenerate the committed replay corpus (trace + golden report). A
# deliberate act: rerun and commit the diff when the mission semantics
# intentionally change.
record-corpus:
	sh scripts/record_corpus.sh

check:
	sh scripts/check.sh

# Layer micro-benchmarks (vehicle step, generic and rover Riccati solves,
# tick, EKF, reconstruction roll-forward, diagnosis, whole mission), five
# samples each. The end-to-end benchmark is bench/ (see BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench 'Step|SolveDARE|RoverGain|Tick|EKF|RollForward|Diagnose|Mission' -benchmem -count 5 \
		./. ./internal/core/ ./internal/diagnosis/ ./internal/ekf/ ./internal/mat/ ./internal/reconstruct/ ./internal/recovery/ ./internal/vehicle/
