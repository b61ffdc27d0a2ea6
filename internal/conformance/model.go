package conformance

import (
	"fmt"

	"rms/internal/codegen"
	"rms/internal/eqgen"
	"rms/internal/expr"
	"rms/internal/network"
	"rms/internal/opt"
)

// Case is one fully compiled conformance model: a network pushed
// through every optimizer configuration the stage matrix compares, plus
// the tape, the analytic Jacobian and the emitted C. The evaluation
// point (Y, K) is derived entirely from the network — initial
// concentrations as the state, name-hashed rate constants — so a
// shrunken sub-network re-evaluates consistently.
type Case struct {
	Net *network.Network
	Sys *eqgen.System

	// Y is the evaluation state (the network's initial concentrations)
	// and K the rate vector aligned with Sys.Rates; KMap is the same
	// values keyed by name for the tree interpreters.
	Y    []float64
	K    []float64
	KMap map[string]float64

	// The optimizer ladder. Raw evaluates the unsimplified
	// duplicates-intact terms (the reference oracle); each later variant
	// adds one pass: Simp (simplify), Dist (+distribute), CSE
	// (+CSE/products) and Full (+hoist, the production configuration).
	Raw, Simp, Dist, CSE, Full *opt.Optimized

	// Tape and Jac compile Full; CSrc is the emitted C kernel.
	Tape *codegen.Program
	Jac  *codegen.JacobianProgram
	CSrc string

	// Seed identifies the case; stages draw auxiliary randomness
	// (permutations, RDL programs) from it so reruns are deterministic.
	Seed int64
}

// NewCase compiles a network through the full optimizer ladder. When
// mutate is non-nil it is applied to every CSE-bearing variant (CSE and
// Full) before downstream compilation — the hook the harness tests use
// to prove a miscompiled pass is caught (see MutateCSE).
func NewCase(net *network.Network, seed int64, mutate func(*opt.Optimized)) (*Case, error) {
	sys := eqgen.FromNetwork(net)
	cs := &Case{
		Net:  net,
		Sys:  sys,
		Y:    net.InitialConcentrations(),
		K:    RateVector(sys.Rates),
		KMap: make(map[string]float64, len(sys.Rates)),
		Seed: seed,
	}
	for i, name := range sys.Rates {
		cs.KMap[name] = cs.K[i]
	}

	cs.Raw = opt.Optimize(sys, opt.LevelNone)
	ladder := []struct {
		dst   **opt.Optimized
		level opt.Level
	}{
		{&cs.Simp, opt.LevelSimplify},
		{&cs.Dist, opt.LevelDistribute},
		{&cs.CSE, opt.LevelProducts},
		{&cs.Full, opt.LevelFull},
	}
	for _, step := range ladder {
		z := opt.Optimize(sys, step.level)
		if step.level >= opt.LevelPaper && mutate != nil {
			mutate(z)
		}
		*step.dst = z
	}

	tape, err := codegen.Compile(cs.Full)
	if err != nil {
		return nil, fmt.Errorf("conformance: compile tape: %w", err)
	}
	cs.Tape = tape
	jac, err := codegen.CompileJacobian(sys, opt.Full())
	if err != nil {
		return nil, fmt.Errorf("conformance: compile jacobian: %w", err)
	}
	cs.Jac = jac
	cs.CSrc = codegen.EmitC(cs.Full, "ode_fcn")
	return cs, nil
}

// MutateCSE deliberately corrupts the CSE pass output by scaling the
// first temporary's body by 1.001 — the "broken optimizer" the
// acceptance test injects to prove the harness catches a silent
// miscompile. A variant with no temporaries is left untouched, so
// shrinking a caught failure converges on the smallest network that
// still has a shared subexpression.
func MutateCSE(z *opt.Optimized) {
	if len(z.Temps) == 0 {
		return
	}
	t := &z.Temps[0]
	t.Body = expr.NewMul(expr.NewConst(1.001), t.Body)
}
