#!/bin/sh
# Repository checks: hold every Go file to gofmt, vet everything,
# race-test the concurrency-heavy packages (the simulated MPI runtime,
# the parallel estimator and its load balancer) and the numerical core the
# sparse Jacobian path touches (solver, linear algebra), give both
# parser fuzzers, the canonical-labelling oracle and the symbol order a
# short smoke run, then run the cross-stack conformance
# matrix (docs/testing.md). Run from the repository root; the full
# serial test suite is `go test ./...`.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l (benchmark build output excluded)"
unformatted=$(find . -name '*.go' -not -path './.bench_build/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go test -race (mpi, estimator, sched, ode, linalg, telemetry, introspect, codegen, service)"
go test -race ./internal/mpi/... ./internal/estimator/... \
	./internal/sched/... ./internal/ode/... ./internal/linalg/... \
	./internal/telemetry/... ./internal/introspect/... ./internal/codegen/... \
	./internal/service/... ./cmd/rmsd/...

echo "== introspection endpoints smoke (rmssim -listen)"
./scripts/introspect_smoke.sh

echo "== service smoke (rmsd + rmsctl vs rmssim/rmsrun)"
./scripts/service_smoke.sh

echo "== fault-injection suite (make faults, -race)"
make faults

echo "== chaos soak (make chaos: degradation ladder, checkpoint/resume, budgets)"
make chaos

echo "== fuzz smoke (FuzzParseRDL, 10s)"
go test -fuzz=FuzzParseRDL -fuzztime=10s ./internal/rdl

echo "== fuzz smoke (FuzzParseSMILES, 10s)"
go test -fuzz=FuzzParseSMILES -fuzztime=10s ./internal/chem

echo "== fuzz smoke (FuzzCanonicalMatchesReference, 10s)"
go test -fuzz=FuzzCanonicalMatchesReference -fuzztime=10s ./internal/chem

echo "== fuzz smoke (FuzzSymbolOrder, 10s)"
go test -fuzz=FuzzSymbolOrder -fuzztime=10s ./internal/expr

echo "== load-balancer skew smoke (rmsbench -skew, static vs lpt, small model)"
go run ./cmd/rmsbench -skew -variants 8

echo "== conformance matrix (make verify)"
make verify

echo "ok"
