#!/usr/bin/env sh
# check.sh — the tier-2 verification gate: formatting, build, vet,
# project lint (cmd/delint), the full test suite, and the race detector.
#
# The package-wide race pass runs with -short: the full experiment suite
# already takes ~2 minutes natively and the race detector multiplies that
# by ~20×, so the heavy mission sweeps (which honor testing.Short) are
# skipped there. The executor (internal/engine) is the place where
# races would silently corrupt results, so it gets dedicated un-short
# race passes: every internal/engine test (the pool, the runner
# engine, the engine equivalence suite), and the workers=1-vs-8
# byte-identical determinism sweep in internal/experiments. A full
# `go test -race -timeout 60m ./...` remains available for release
# verification.
set -eu
cd "$(dirname "$0")/.." || exit 1

echo "== gofmt =="
test -z "$(gofmt -l .)"
echo "== build =="
go build ./...
echo "== vet =="
go vet ./...
echo "== delint =="
go run ./cmd/delint ./...
echo "== test =="
go test ./...
echo "== race (short) =="
go test -race -short ./...
echo "== race (engine: pool, runner, equivalence) =="
go test -race -timeout 1800s ./internal/engine
echo "== race (parallel determinism) =="
go test -race -timeout 1800s -run 'TestParallelDeterminism|TestDeltaForSingleflight|TestReportDeterminism' ./internal/experiments
echo "== race (pipeline FSM + legacy equivalence) =="
go test -race -timeout 1800s -run 'TestPipelineEquivalence|TestLegalTransition|TestTransition|TestModeSides' ./internal/core
go test -race -timeout 1800s -run 'TestTraceTransitions' ./internal/sim
echo "== race (mission service: drain, backpressure, disconnect, determinism) =="
go test -race -timeout 1800s -run 'TestService' ./internal/service
if command -v shellcheck >/dev/null 2>&1; then
    echo "== shellcheck =="
    shellcheck scripts/*.sh
else
    echo "== shellcheck == (not installed; skipped — CI runs it)"
fi
echo "ok: all checks passed"
