// Package eqgen is the Equation Generator: it turns a reaction network
// into the system of ordinary differential equations describing the
// species concentrations (the paper's Figs. 4 and 5).
//
// For every reaction with rate constant K consuming reactants R1..Rm and
// producing P1..Pk, mass-action kinetics contribute the flux K*R1*...*Rm;
// each consumed occurrence subtracts the flux from its species' ODE and
// each produced occurrence adds it. The equation table merges like terms
// on the fly as sums are inserted (the paper's §3.1 equation
// simplification): the two +K_A*A contributions of Fig. 4 arrive in the
// table as the single 2*K_A*A of the simplified Fig. 5 system. The paper
// stores each equation as a doubly linked list of sum-of-products nodes
// and scans it for a like term on insert; expr.Sum keeps the same
// canonical sum-of-products content with a hash index, which makes the
// on-the-fly combination O(1) per insert instead of a list scan.
package eqgen

import (
	"fmt"
	"slices"
	"strings"

	"rms/internal/expr"
	"rms/internal/network"
)

// Equation is one ODE: d[LHS]/dt = RHS.
type Equation struct {
	// LHS is the species name.
	LHS string
	// RHS is the canonical sum of products with like terms merged — the
	// equation-table form maintained with the §3.1 on-the-fly
	// simplification.
	RHS *expr.Sum
	// Raw lists every contribution separately, in arrival order, exactly
	// as the Fig. 4 → Fig. 5 summation leaves them before any
	// simplification ("dB/dt = +K_A*A + K_A*A"). The unoptimized Table 1
	// rows count and execute this form.
	Raw []expr.Product
}

// String renders the equation in the style of the paper's Fig. 5.
func (e *Equation) String() string {
	return fmt.Sprintf("d%s/dt = %s;", e.LHS, e.RHS)
}

// System is the complete set of ODEs generated from a network, ordered by
// species index.
type System struct {
	// Species lists species names in index order (y[i] in generated code).
	Species []string
	// Rates lists the distinct rate-constant names, sorted (k[i]).
	Rates []string
	// Equations holds one ODE per species, aligned with Species.
	Equations []*Equation
	// Y0 is the initial concentration vector, aligned with Species.
	Y0 []float64
}

// FromNetwork generates the ODE system for a reaction network.
func FromNetwork(net *network.Network) *System {
	sys := &System{
		Species: make([]string, len(net.Species)),
		Rates:   net.RateNames(),
		Y0:      net.InitialConcentrations(),
	}
	eqs := make(map[string]*Equation, len(net.Species))
	for _, s := range net.Species {
		eq := &Equation{LHS: s.Name, RHS: expr.NewSum()}
		sys.Species[s.Index] = s.Name
		eqs[s.Name] = eq
		sys.Equations = append(sys.Equations, eq)
	}
	for _, r := range net.Reactions {
		factors := make([]string, 0, len(r.Consumed)+1)
		factors = append(factors, r.Rate)
		factors = append(factors, r.Consumed...)
		for _, c := range r.Consumed {
			p := expr.NewProduct(-1, factors...)
			eqs[c].RHS.Add(p)
			eqs[c].Raw = append(eqs[c].Raw, p)
		}
		for _, p := range r.Produced {
			pr := expr.NewProduct(1, factors...)
			eqs[p].RHS.Add(pr)
			eqs[p].Raw = append(eqs[p].Raw, pr)
		}
	}
	return sys
}

// TotalOps returns the static multiply and add/subtract counts of the
// raw, unsimplified equations — the "without algebraic/CSE optimizations"
// rows of the paper's Table 1, where duplicate contributions are still
// spelled out.
func (s *System) TotalOps() (muls, adds int) {
	for _, eq := range s.Equations {
		for _, p := range eq.Raw {
			if d := p.Degree(); d > 0 {
				muls += d - 1
				if p.Coef != 1 && p.Coef != -1 {
					muls++
				}
			}
		}
		if n := len(eq.Raw); n > 1 {
			adds += n - 1
		}
	}
	return muls, adds
}

// SimplifiedOps returns the op counts after only the §3.1 like-term
// merging (the equation-table form).
func (s *System) SimplifiedOps() (muls, adds int) {
	for _, eq := range s.Equations {
		m, a := eq.RHS.CountOps()
		muls += m
		adds += a
	}
	return muls, adds
}

// RawNode converts one equation's raw contribution list into an
// unsimplified expression tree (duplicates intact).
func RawNode(raw []expr.Product) expr.Node {
	terms := make([]expr.Node, 0, len(raw))
	for _, p := range raw {
		factors := make([]expr.Node, 0, p.Degree()+1)
		if p.Coef != 1 || p.Degree() == 0 {
			factors = append(factors, expr.NewConst(p.Coef))
		}
		for _, f := range p.Factors {
			factors = append(factors, expr.NewVar(f))
		}
		terms = append(terms, expr.NewMul(factors...))
	}
	// NewAdd flattens and orders but does not merge like terms, so the
	// duplicates survive into the tree.
	return expr.NewAdd(terms...)
}

// NumEquations returns the number of ODEs (one per species).
func (s *System) NumEquations() int { return len(s.Equations) }

// String renders the whole system in the style of the paper's Fig. 5.
func (s *System) String() string {
	var sb strings.Builder
	for i, eq := range s.Equations {
		fmt.Fprintf(&sb, "%d. %s\n", i+1, eq)
	}
	return sb.String()
}

// SpeciesIndex returns a name -> index map for the system.
func (s *System) SpeciesIndex() map[string]int {
	m := make(map[string]int, len(s.Species))
	for i, name := range s.Species {
		m[name] = i
	}
	return m
}

// Eval computes d(y)/dt for the given concentrations and rate-constant
// values by direct symbolic evaluation. It is the reference semantics the
// optimizer and code generator are tested against; production evaluation
// uses the compiled tape from package codegen.
func (s *System) Eval(y []float64, k map[string]float64) []float64 {
	env := make(map[string]float64, len(y)+len(k))
	for i, name := range s.Species {
		env[name] = y[i]
	}
	for name, v := range k {
		env[name] = v
	}
	dy := make([]float64, len(s.Equations))
	for i, eq := range s.Equations {
		dy[i] = eq.RHS.Eval(env)
	}
	return dy
}

// JacEntry is one structurally nonzero entry of the system's Jacobian
// ∂(dy_Row/dt)/∂y_Col, as a canonical sum of products.
type JacEntry struct {
	Row, Col int
	RHS      *expr.Sum
}

// Jacobian differentiates every (merged) equation with respect to every
// species its right-hand side references. Mass-action systems are sparse:
// an equation only depends on the species participating in its reactions,
// so the entry list is far smaller than the dense n² matrix.
//
// Each equation is differentiated in one pass over its products
// (expr.Diff), so the whole Jacobian costs time linear in the size of the
// system. Entries come row by row and, within a row, in the canonical
// order of their species' names (expr.TermLess).
func (s *System) Jacobian() []JacEntry {
	index := s.SpeciesIndex()
	// order[c] is species c's position in canonical name order.
	byName := make([]int, len(s.Species))
	for c := range byName {
		byName[c] = c
	}
	slices.SortFunc(byName, func(a, b int) int { return expr.TermCompare(s.Species[a], s.Species[b]) })
	order := make([]int, len(s.Species))
	for pos, c := range byName {
		order[c] = pos
	}
	cols := make([]*expr.Sum, len(s.Species))
	var touched []int
	var entries []JacEntry
	for row, eq := range s.Equations {
		touched = expr.Diff(eq.RHS, index, cols, touched[:0])
		slices.SortFunc(touched, func(a, b int) int { return order[a] - order[b] })
		for _, col := range touched {
			entries = append(entries, JacEntry{Row: row, Col: col, RHS: cols[col]})
			cols[col] = nil
		}
	}
	return entries
}

// JacobianSystem packages the Jacobian entries as a pseudo-System so the
// optimizer and code generator can process them exactly like equations
// (temporaries shared across entries and all).
func (s *System) JacobianSystem() (*System, []JacEntry) {
	entries := s.Jacobian()
	js := &System{
		Species: s.Species,
		Rates:   s.Rates,
		Y0:      s.Y0,
	}
	for _, e := range entries {
		js.Equations = append(js.Equations, &Equation{
			LHS: fmt.Sprintf("J[%d,%d]", e.Row, e.Col),
			RHS: e.RHS,
			Raw: e.RHS.Products(),
		})
	}
	return js, entries
}
