package opt

import (
	"fmt"
	"strings"

	"rms/internal/eqgen"
	"rms/internal/expr"
)

// Level is one rung of the optimizer's pass ladder. Each rung runs every
// pass of the rung below it plus one more, in the order the passes
// depend on each other: the distributive optimization consumes the §3.1
// merged sum-of-products form, and "we cannot run the CSE optimization
// without first running the algebraic optimizations". The zero value
// performs no optimization.
type Level int

const (
	// LevelNone keeps the raw equations with duplicate contributions
	// intact, as Fig. 5 lists them (Table 1's "without algebraic/CSE
	// optimizations" configuration).
	LevelNone Level = iota
	// LevelSimplify runs the §3.1 equation simplification: like terms
	// merge into single products with summed coefficients. (The equation
	// table maintains this form on the fly; LevelNone bypasses it.)
	LevelSimplify
	// LevelDistribute adds the §3.2 distributive optimization (Fig. 6).
	LevelDistribute
	// LevelPaper adds the §3.3 common-subexpression elimination over sum
	// subexpressions (Fig. 7): the paper's own configuration.
	LevelPaper
	// LevelProducts extends CSE to product factor lists (see CSEConfig).
	LevelProducts
	// LevelFull adds invariant hoisting: subexpressions over literals and
	// rate constants only move into a prelude evaluated once per
	// rate-constant vector (see hoistKInvariants). This is the production
	// configuration.
	LevelFull
)

// levelNames is the one spelling of each rung, shared by rmsd's
// "optimize" field, rmsc -opt and rmsctl -optimize.
var levelNames = [...]string{"none", "simplify", "distribute", "paper", "products", "full"}

// String returns the level's name.
func (l Level) String() string {
	if l < 0 || int(l) >= len(levelNames) {
		return fmt.Sprintf("Level(%d)", int(l))
	}
	return levelNames[l]
}

// LevelNames lists every level's name in ladder order, joined by "|".
func LevelNames() string { return strings.Join(levelNames[:], "|") }

// ParseLevel returns the level a name spells.
func ParseLevel(name string) (Level, error) {
	for l, n := range levelNames {
		if n == name {
			return Level(l), nil
		}
	}
	return 0, fmt.Errorf("opt: unknown optimization level %q (%s)", name, LevelNames())
}

// Full returns LevelFull, the production configuration: all passes,
// product matching and invariant hoisting.
func Full() Level { return LevelFull }

// Paper returns LevelPaper, the paper-faithful configuration: §3.1
// simplification, the Fig. 6 distributive optimization and the Fig. 7
// sum-based CSE, without product matching or hoisting.
func Paper() Level { return LevelPaper }

// Optimized is an optimized ODE system ready for code generation:
// temporary definitions in emission order followed by one right-hand-side
// tree per species equation.
type Optimized struct {
	// Species, Rates, Syms and Y0 mirror the source system.
	Species []string
	Rates   []string
	Syms    *expr.Symbols
	Y0      []float64
	// Temps are the compiler temporaries, in def-before-use order. The
	// first NumPrelude entries form the prelude: they depend only on the
	// rate constants and are evaluated once per rate vector, not once per
	// right-hand-side evaluation.
	Temps []TempDef
	// NumPrelude counts the leading rate-only temporaries.
	NumPrelude int
	// RHS holds the optimized right-hand side of each equation, aligned
	// with Species.
	RHS []expr.Node
}

// Optimize runs the passes of level l over a generated ODE system.
func Optimize(sys *eqgen.System, l Level) *Optimized {
	z := &Optimized{
		Species: sys.Species,
		Rates:   sys.Rates,
		Syms:    sys.Syms,
		Y0:      sys.Y0,
		RHS:     make([]expr.Node, len(sys.Equations)),
	}
	for i, eq := range sys.Equations {
		switch {
		case l >= LevelDistribute:
			z.RHS[i] = DistOpt(eq.RHS)
		case l >= LevelSimplify:
			z.RHS[i] = eq.RHS.Node()
		default:
			z.RHS[i] = eqgen.RawNode(sys.Syms, eq.Raw)
		}
	}
	if l >= LevelPaper {
		res := CSE(z.RHS, CSEConfig{Products: l >= LevelProducts})
		z.Temps = res.Temps
		z.RHS = res.RHS
	}
	if l >= LevelFull {
		hoistKInvariants(z)
	}
	return z
}

// CountOps returns the static arithmetic operation counts of the
// per-evaluation code: main temporaries plus equation bodies. Prelude
// temporaries run once per rate vector, not per evaluation, and are
// reported by PreludeOps. Stores into temporaries and into the dy vector
// are not arithmetic and are not counted, matching Table 1's accounting.
func (z *Optimized) CountOps() (muls, adds int) {
	for _, t := range z.Temps[z.NumPrelude:] {
		m, a := expr.CountOps(t.Body)
		muls += m
		adds += a
	}
	for _, r := range z.RHS {
		m, a := expr.CountOps(r)
		muls += m
		adds += a
	}
	return muls, adds
}

// PreludeOps returns the operation counts of the once-per-rate-vector
// prelude.
func (z *Optimized) PreludeOps() (muls, adds int) {
	for _, t := range z.Temps[:z.NumPrelude] {
		m, a := expr.CountOps(t.Body)
		muls += m
		adds += a
	}
	return muls, adds
}

// NumTemps returns the number of emitted temporaries.
func (z *Optimized) NumTemps() int { return len(z.Temps) }

// Eval computes dy/dt by direct tree interpretation, evaluating
// temporaries in order first. It is the reference semantics used by the
// differential tests; production evaluation compiles to a tape (package
// codegen).
func (z *Optimized) Eval(y []float64, k map[string]float64) []float64 {
	env := make(map[string]float64, len(y)+len(k))
	for i, name := range z.Species {
		env[name] = y[i]
	}
	for name, v := range k {
		env[name] = v
	}
	temps := make([]float64, len(z.Temps))
	for i, t := range z.Temps {
		if t.ID != i {
			panic("opt: temp defs out of order")
		}
		temps[i] = t.Body.Eval(env, temps)
	}
	dy := make([]float64, len(z.RHS))
	for i, r := range z.RHS {
		dy[i] = r.Eval(env, temps)
	}
	return dy
}
