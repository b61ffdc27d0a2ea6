// Package faults provides deterministic fault injection for the suite's
// fault-tolerance layer. A Plan is a seeded, reproducible failure
// schedule consulted at well-defined injection points:
//
//   - collective entries in the simulated MPI runtime (crash or stall a
//     specific rank at its nth collective — Plan implements mpi.Hook);
//   - per-file solve attempts in the parallel estimator (fail file i at
//     objective call j, or fail a seeded pseudo-random fraction of all
//     solves — Plan.FileSolve, which estimator.Config.Faults consults).
//
// Every injection is deterministic: keyed injections fire exactly once
// at their trigger, and rate-based injections decide by hashing
// (seed, call, file, attempt), so the schedule does not depend on the
// order in which concurrent ranks reach the injection points. That
// determinism is what lets the recovery paths — retry then reject, rank
// shrink-and-retry, the hang watchdog — be exercised by ordinary unit
// tests instead of hoped-for in production.
//
// A Plan is not checkpointed. A resumed fit builds its plan again from
// the same schedule: file faults are keyed by (file, objective call), so
// the restored call index alone decides which of them still fire, while
// crash and stall entries count collectives from the plan's
// construction.
package faults

import (
	"fmt"
	"sync"

	"rms/internal/mpi"
	"rms/internal/ode"
	"rms/internal/telemetry"
)

// ErrInjected is the error injected file-solve failures return. It wraps
// ode.ErrStepTooSmall so the estimator's retry policy treats an injected
// failure exactly like a real solver breakdown.
var ErrInjected = fmt.Errorf("faults: injected solver failure: %w", ode.ErrStepTooSmall)

// Counts reports how many injections a Plan has fired, by kind.
type Counts struct {
	Crashes, Stalls, FileFailures int
}

type key struct{ a, b int }

// Plan is a deterministic fault schedule. The zero value injects
// nothing; NewPlan seeds the rate-based decisions. A Plan is safe for
// concurrent use by all ranks.
type Plan struct {
	mu sync.Mutex

	seed int64
	// crash/stall are keyed by {rank, nth-collective-of-that-rank},
	// counted cumulatively across every Run the plan observes; fired
	// entries are consumed (one-shot), so a recovered communicator does
	// not re-trip the same fault.
	crash map[key]bool
	stall map[key]bool
	// seen[rank] counts collective entries per rank across runs.
	seen map[int]int
	// fileFail is keyed by {file, objective call}; the value is how many
	// leading attempts fail (allAttempts = every attempt).
	fileFail map[key]int
	rate     float64

	// log, when set, records every fired injection in the flight
	// recorder — the "what was injected when" half of a chaos run's
	// post-mortem timeline.
	log *telemetry.Logger

	counts Counts
}

// allAttempts makes a keyed file failure persist through every retry.
const allAttempts = -1

// NewPlan returns an empty plan; seed drives the rate-based injections.
func NewPlan(seed int64) *Plan {
	return &Plan{
		seed:     seed,
		crash:    make(map[key]bool),
		stall:    make(map[key]bool),
		seen:     make(map[int]int),
		fileFail: make(map[key]int),
	}
}

// CrashRank schedules a one-shot panic on the given rank as it enters
// its nth collective (0-based, counted cumulatively across runs).
func (p *Plan) CrashRank(rank, nthCollective int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crash[key{rank, nthCollective}] = true
	return p
}

// StallRank schedules a one-shot stall (block until the communicator
// dies) on the given rank as it enters its nth collective — the injected
// deadlock the mpi watchdog diagnoses.
func (p *Plan) StallRank(rank, nthCollective int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stall[key{rank, nthCollective}] = true
	return p
}

// FailFile schedules the solve of the given file to fail at the given
// objective call, on every retry attempt — the solve is unsalvageable
// and its records must end NaN.
func (p *Plan) FailFile(file, call int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fileFail[key{file, call}] = allAttempts
	return p
}

// FlakyFile schedules the solve of the given file to fail its first
// `attempts` attempts at the given objective call, then succeed — the
// retry policy's recoverable case.
func (p *Plan) FlakyFile(file, call, attempts int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fileFail[key{file, call}] = attempts
	return p
}

// FailRate makes every first solve attempt fail independently with the
// given probability, decided by hashing (seed, call, file), so the
// outcome is reproducible regardless of rank scheduling. Retries of a
// rate-failed solve succeed — rate injection models transient faults.
func (p *Plan) FailRate(rate float64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rate = rate
	return p
}

// WithLogger routes fired-injection events to l (nil disables) and
// returns the plan.
func (p *Plan) WithLogger(l *telemetry.Logger) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.log = l
	return p
}

// Counts returns the number of injections fired so far.
func (p *Plan) Counts() Counts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts
}

// AtCollective implements mpi.Hook: it fires any crash or stall
// scheduled for this rank's cumulative nth collective entry. The seq
// argument (per-Run) is ignored in favor of the plan's cumulative
// counter so schedules span shrink-and-retry re-runs without re-firing.
func (p *Plan) AtCollective(rank, seq int) mpi.HookAction {
	p.mu.Lock()
	defer p.mu.Unlock()
	nth := p.seen[rank]
	p.seen[rank]++
	k := key{rank, nth}
	if p.crash[k] {
		delete(p.crash, k)
		p.counts.Crashes++
		p.log.Warn("inject", "injected rank crash", "rank", rank, "nth", nth)
		return mpi.ActCrash
	}
	if p.stall[k] {
		delete(p.stall, k)
		p.counts.Stalls++
		p.log.Warn("inject", "injected rank stall", "rank", rank, "nth", nth)
		return mpi.ActStall
	}
	return mpi.ActProceed
}

// FileSolve is the estimator's per-solve injection point: it is
// consulted before attempt number `attempt` (0-based) of solving file
// `file` during objective call `call` on rank `rank`, and returns
// ErrInjected when the schedule says this attempt fails. A nil plan
// injects nothing.
func (p *Plan) FileSolve(call, rank, file, attempt int) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n, ok := p.fileFail[key{file, call}]; ok {
		if n == allAttempts || attempt < n {
			p.counts.FileFailures++
			p.logSolve("injected solve failure", call, rank, file, attempt)
			return ErrInjected
		}
	}
	if p.rate > 0 && attempt == 0 {
		if hashUnit(p.seed, int64(call), int64(file)) < p.rate {
			p.counts.FileFailures++
			p.logSolve("injected solve failure (rate)", call, rank, file, attempt)
			return ErrInjected
		}
	}
	return nil
}

// logSolve records one fired per-solve injection. Called with p.mu held.
func (p *Plan) logSolve(msg string, call, rank, file, attempt int) {
	p.log.Warn("inject", msg,
		"call", call, "rank", rank, "file", file, "attempt", attempt)
}

// hashUnit maps (seed, call, file) to a uniform value in [0, 1) with a
// splitmix64-style mixer — deterministic and order-independent.
func hashUnit(parts ...int64) float64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return float64(x>>11) / float64(1<<53)
}

var _ mpi.Hook = (*Plan)(nil)
