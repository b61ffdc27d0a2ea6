package ode

import (
	"math"

	"rms/internal/telemetry"
)

// The ode.* metric families are defined in this file and nowhere else:
// each family's name, kind and buckets appear once, and both publishers
// below take their handles from these definitions. StatsMetrics
// publishes whole-solve totals (the estimator's file solves);
// ObserveSteps publishes the per-attempt StepEvent stream (rmsd's
// simulates). On a shared registry the two land in the same families
// without a telemetry.conflicts registration.

func stepsCounter(reg *telemetry.Registry) *telemetry.Counter {
	return reg.Counter("ode.steps")
}

func rejectedCounter(reg *telemetry.Registry) *telemetry.Counter {
	return reg.Counter("ode.rejected_steps")
}

func newtonCounter(reg *telemetry.Registry) *telemetry.Counter {
	return reg.Counter("ode.newton_iters")
}

func factorizationsCounter(reg *telemetry.Registry) *telemetry.Counter {
	return reg.Counter("ode.factorizations")
}

// StepSizeHistogram returns reg's ode.step_size histogram of |h| per
// step attempt. Its buckets span the step magnitudes chemistry
// integrations visit, from deep transients to free-running cruise.
func StepSizeHistogram(reg *telemetry.Registry) *telemetry.Histogram {
	return reg.Histogram("ode.step_size", []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100})
}

// StatsMetrics publishes solves' Stats into a registry: ode.steps,
// ode.rejected_steps, ode.fevals, ode.jevals, ode.newton_iters,
// ode.factorizations, ode.sparse_factorizations, ode.factor_ops and
// ode.solve_ops. The zero value (and a nil registry's) is a no-op.
type StatsMetrics struct {
	steps, rejected, fevals, jevals *telemetry.Counter
	newtonIters, factorizations     *telemetry.Counter
	sparseFactorizations            *telemetry.Counter
	factorOps, solveOps             *telemetry.FloatCounter
}

// NewStatsMetrics registers the Stats families in reg.
func NewStatsMetrics(reg *telemetry.Registry) StatsMetrics {
	return StatsMetrics{
		steps:                stepsCounter(reg),
		rejected:             rejectedCounter(reg),
		fevals:               reg.Counter("ode.fevals"),
		jevals:               reg.Counter("ode.jevals"),
		newtonIters:          newtonCounter(reg),
		factorizations:       factorizationsCounter(reg),
		sparseFactorizations: reg.Counter("ode.sparse_factorizations"),
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
	m.factorOps.Add(st.FactorOps)
	m.solveOps.Add(st.SolveOps)
}

// ObserveSteps returns a StepObserver that publishes every step attempt
// into reg: one ode.steps or ode.rejected_steps count, its Newton
// iterations and factorizations, its |h| in ode.step_size, and its order
// in the ode.order gauge.
func ObserveSteps(reg *telemetry.Registry) StepObserver {
	steps := stepsCounter(reg)
	rejected := rejectedCounter(reg)
	newton := newtonCounter(reg)
	factor := factorizationsCounter(reg)
	h := StepSizeHistogram(reg)
	order := reg.Gauge("ode.order")
	return func(ev StepEvent) {
		if ev.Accepted {
			steps.Inc()
		} else {
			rejected.Inc()
		}
		newton.Add(int64(ev.NewtonIters))
		factor.Add(int64(ev.Factorizations))
		h.Observe(math.Abs(ev.H))
		order.Set(float64(ev.Order))
	}
}
