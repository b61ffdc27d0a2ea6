# Convenience targets; `make check` is the pre-commit gate.

.PHONY: build test check race fuzz bench bench-smoke faults verify chaos \
	flake bench-compare bench-baseline introspect-smoke service-smoke

build:
	go build ./...

test:
	go vet ./...
	go test ./...

# check = gofmt + vet + race tests of the concurrency-heavy and
# numerical-core packages + a short parser-fuzz smoke run.
check:
	./scripts/check.sh

race:
	go test -race ./...

fuzz:
	go test -fuzz=FuzzParseRDL -fuzztime=10s ./internal/rdl
	go test -fuzz=FuzzParseSMILES -fuzztime=10s ./internal/chem
	go test -fuzz=FuzzCanonicalMatchesReference -fuzztime=10s ./internal/chem
	go test -fuzz=FuzzSymbolOrder -fuzztime=10s ./internal/expr

# The cross-stack conformance matrix (docs/testing.md): every
# optimization layer differentially checked against the reference
# interpreter over seeded random models.
verify:
	go run ./cmd/rmsverify -seed 1 -n 25

# The deterministic fault-injection suite (docs/fault-tolerance.md)
# under the race detector: solver retries, NaN rejection, rank
# crash/stall recovery, watchdog diagnosis, optimizer NaN handling, and
# the conformance fault tests on random models.
faults:
	go test -race -run 'Fault|Recover|Watchdog|Inject|Penal|NaN|NonFinite|Flaky|Stall|Crash' \
		./internal/faults/... ./internal/mpi ./internal/estimator ./internal/nlopt \
		./internal/conformance

# The chaos soak (docs/checkpointing.md): the graceful-degradation
# ladder and the failure path driven by injected faults under the race
# detector, plus the
# budget/cancellation, checkpoint/resume and SIGINT-interrupt paths of
# the estimator, solvers, optimizer and both CLI front ends.
chaos:
	go test -race -run 'Chaos|Budget|Demot|Snapshot|Resume|Checkpoint|Interrupt|Deadline|Cancel' \
		./internal/budget ./internal/estimator \
		./internal/ode ./internal/nlopt \
		./internal/mpi \
		./cmd/rmsrun ./cmd/rmssim
	go test -race ./internal/checkpoint
	go run ./cmd/rmsverify -seed 7 -n 3 -size 10 -stages resume

# Flake hunt: the estimator's chaos, load-balancer and configuration
# cross-product tests, repeated at one and four CPUs. A result or fault
# schedule that depends on goroutine timing shows up here as an
# intermittent failure.
flake:
	go test -count=20 -cpu 1,4 -run 'Chaos|Sched|ConfigCrossProduct' ./internal/estimator

bench:
	go test -bench . -benchtime 1s ./internal/bench/ .

# One iteration of every benchmark, so a benchmark that panics or fails
# its own checks fails the build.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./internal/bench/ ./internal/opt/ .

# Bench regression gate (docs/observability.md): re-run the
# deterministic load-balancer scaling bench and hold it to the committed
# BENCH_baseline.json within cmd/benchcmp's tolerance band. Re-seed the
# baseline with bench-baseline after an intentional performance change.
bench-compare:
	./scripts/bench_compare.sh

bench-baseline:
	./scripts/bench_compare.sh -update

# Live-introspection smoke: rmssim -listen, scrape /metrics, /healthz,
# /debug/vars and /debug/events while the integration runs.
introspect-smoke:
	./scripts/introspect_smoke.sh

# Service smoke (docs/service.md): start rmsd on port 0, drive it with
# rmsctl over HTTP, and hold the served simulate/fit results to the
# standalone rmssim/rmsrun outputs byte for byte.
service-smoke:
	./scripts/service_smoke.sh
