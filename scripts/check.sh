#!/usr/bin/env sh
# check.sh — the tier-2 verification gate: formatting, build, vet,
# project lint (cmd/delint), the full test suite, and the race detector.
#
# The package-wide race pass runs with -short: the full experiment suite
# already takes ~2 minutes natively and the race detector multiplies that
# by ~20×, so the heavy mission sweeps (which honor testing.Short) are
# skipped there. The places where races would silently corrupt results
# get dedicated un-short race passes, listed once in the Makefile's
# race-runner target (CI's scheduled race-runner job runs the same
# target): the executor (internal/engine), the mission service, the
# workers=1-vs-8 byte-identical determinism sweep in
# internal/experiments, and the pipeline FSM with the legacy
# equivalence suite. A full `go test -race -timeout 60m ./...` remains
# available for release verification.
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
echo "== race (un-short: make race-runner) =="
"${MAKE:-make}" race-runner
if command -v shellcheck >/dev/null 2>&1; then
    echo "== shellcheck =="
    shellcheck scripts/*.sh
else
    echo "== shellcheck == (not installed; skipped — CI runs it)"
fi
echo "ok: all checks passed"
