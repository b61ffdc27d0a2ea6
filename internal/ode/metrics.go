package ode

import (
	"math"

	"rms/internal/telemetry"
)

// The ode.* metric families, and degrade.sparse_to_dense, are defined in
// this file and nowhere else. A solver's Stats is the one record of its
// work: every caller publishes it once per solve through StatsMetrics
// (the estimator per file solve, rmsd per simulate), so every family
// counts the same thing whichever path ran the solve. The per-attempt
// StepEvent stream feeds only the ode.step_size histogram.

// StatsMetrics publishes solves' Stats into a registry: ode.steps,
// ode.rejected_steps, ode.fevals, ode.jevals, ode.newton_iters,
// ode.factorizations, ode.sparse_factorizations, ode.factor_ops,
// ode.solve_ops and degrade.sparse_to_dense. The zero value (and a nil
// registry's) is a no-op.
type StatsMetrics struct {
	steps, rejected, fevals, jevals       *telemetry.Counter
	newtonIters, factorizations           *telemetry.Counter
	sparseFactorizations, sparseDemotions *telemetry.Counter
	factorOps, solveOps                   *telemetry.FloatCounter
}

// NewStatsMetrics registers the Stats families in reg.
func NewStatsMetrics(reg *telemetry.Registry) StatsMetrics {
	return StatsMetrics{
		steps:                reg.Counter("ode.steps"),
		rejected:             reg.Counter("ode.rejected_steps"),
		fevals:               reg.Counter("ode.fevals"),
		jevals:               reg.Counter("ode.jevals"),
		newtonIters:          reg.Counter("ode.newton_iters"),
		factorizations:       reg.Counter("ode.factorizations"),
		sparseFactorizations: reg.Counter("ode.sparse_factorizations"),
		sparseDemotions:      reg.Counter("degrade.sparse_to_dense"),
		factorOps:            reg.FloatCounter("ode.factor_ops"),
		solveOps:             reg.FloatCounter("ode.solve_ops"),
	}
}

// Publish adds one solve's work counters.
func (m StatsMetrics) Publish(st Stats) {
	m.steps.Add(int64(st.Steps))
	m.rejected.Add(int64(st.Rejected))
	m.fevals.Add(int64(st.FEvals))
	m.jevals.Add(int64(st.JEvals))
	m.newtonIters.Add(int64(st.NewtonIters))
	m.factorizations.Add(int64(st.Factorizations))
	m.sparseFactorizations.Add(int64(st.SparseFactorizations))
	m.sparseDemotions.Add(int64(st.SparseDemotions))
	m.factorOps.Add(st.FactorOps)
	m.solveOps.Add(st.SolveOps)
}

// ObserveStepSize returns a StepObserver that records every step
// attempt's |h| in reg's ode.step_size histogram, then passes the event
// to next (nil: none). Given a nil registry it returns next unchanged, so
// an uninstrumented solve keeps its observer, or none. The buckets span
// the step magnitudes chemistry integrations visit, from deep transients
// to free-running cruise.
func ObserveStepSize(reg *telemetry.Registry, next StepObserver) StepObserver {
	if reg == nil {
		return next
	}
	h := reg.Histogram("ode.step_size", []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100})
	return func(ev StepEvent) {
		h.Observe(math.Abs(ev.H))
		if next != nil {
			next(ev)
		}
	}
}
