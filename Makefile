# Standard developer entry points. `make check` is the full tier-2 gate
# (see scripts/check.sh); the other targets are its individual stages.

GO ?= go

.PHONY: all build test lint race race-runner check bench bench-baseline equiv-gate replay-gate record-corpus serve service-smoke loadtest campaign

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

# Un-short race pass over the parallel runner, the fleet executor, and
# the workers=1-vs-8 determinism sweep — the places a data race could
# corrupt results.
race-runner:
	$(GO) test -race -timeout 1800s ./internal/runner
	$(GO) test -race -timeout 1800s ./internal/fleet
	$(GO) test -race -timeout 1800s -run 'TestParallelDeterminism|TestDeltaForSingleflight|TestReportDeterminism' ./internal/experiments

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
# golden byte for byte — monolithic, sharded+checkpointed on the fleet
# engine, and across a -halt-after interrupt followed by -resume.
campaign:
	bash scripts/campaign_smoke.sh

# Regenerate the committed replay corpus (trace + golden report). A
# deliberate act: rerun and commit the diff when the mission semantics
# intentionally change.
record-corpus:
	sh scripts/record_corpus.sh

check:
	sh scripts/check.sh

# Before/after hot-path benchmark comparison against the pre-campaign
# tree (git worktree), the runner-vs-fleet engine race, the campaign-vs-
# direct overhead race, and the byte-identity checks; writes
# BENCH_PR10.json. See scripts/bench_compare.sh for the BEFORE_REF/
# BENCHTIME/MIN_FLEET_SPEEDUP/MIN_CAMPAIGN_RATIO knobs.
bench:
	bash scripts/bench_compare.sh

# Records wall-clock for `cmd/experiments -exp all` at workers=1 vs
# workers=NumCPU into BENCH_BASELINE.json and verifies the two outputs
# are byte-identical.
bench-baseline:
	sh scripts/bench_baseline.sh
