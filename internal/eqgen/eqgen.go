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
	// Syms interns every species and rate-constant name; the equations'
	// products are over its symbols.
	Syms *expr.Symbols
	// Equations holds one ODE per species, aligned with Species.
	Equations []*Equation
	// Y0 is the initial concentration vector, aligned with Species.
	Y0 []float64
}

// FromNetwork generates the ODE system for a reaction network. Each
// reaction's flux K*R1*...*Rm is built once, then added with coefficient
// −1 for every consumed occurrence and +1 for every produced one.
func FromNetwork(net *network.Network) *System {
	sys := &System{
		Species: make([]string, len(net.Species)),
		Rates:   net.RateNames(),
		Y0:      net.InitialConcentrations(),
	}
	for _, s := range net.Species {
		sys.Species[s.Index] = s.Name
	}
	sys.Syms = expr.NewSymbols(append(slices.Clone(sys.Species), sys.Rates...)...)
	// Intern each reaction's names once — its rate, then its consumed and
	// produced species — and count each species' contributions, so its
	// raw list is one allocation.
	size := 0
	for _, r := range net.Reactions {
		size += 1 + len(r.Consumed) + len(r.Produced)
	}
	names := make([]expr.Sym, 0, size)
	count := make([]int, sys.Syms.Len())
	for _, r := range net.Reactions {
		names = append(names, sys.Syms.Sym(r.Rate))
		for _, sp := range [2][]string{r.Consumed, r.Produced} {
			for _, name := range sp {
				s := sys.Syms.Sym(name)
				names = append(names, s)
				count[s]++
			}
		}
	}
	eqs := make([]*Equation, sys.Syms.Len()) // by species symbol
	for _, name := range sys.Species {
		s := sys.Syms.Sym(name)
		eqs[s] = &Equation{LHS: name, RHS: expr.NewSum(sys.Syms), Raw: make([]expr.Product, 0, count[s])}
		sys.Equations = append(sys.Equations, eqs[s])
	}
	for _, r := range net.Reactions {
		consumed := names[1 : 1+len(r.Consumed)]
		produced := names[1+len(r.Consumed) : 1+len(r.Consumed)+len(r.Produced)]
		flux := expr.NewProduct(1, names[:1+len(r.Consumed)]...)
		for _, c := range consumed {
			eqs[c].add(expr.Product{Coef: -1, Factors: flux.Factors})
		}
		for _, p := range produced {
			eqs[p].add(flux)
		}
		names = names[1+len(r.Consumed)+len(r.Produced):]
	}
	return sys
}

// add records one contribution, both merged and raw.
func (e *Equation) add(p expr.Product) {
	e.RHS.Add(p)
	e.Raw = append(e.Raw, p)
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
func RawNode(syms *expr.Symbols, raw []expr.Product) expr.Node {
	terms := make([]expr.Node, 0, len(raw))
	for _, p := range raw {
		terms = append(terms, expr.ProductNode(syms, p))
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
	// col maps each species symbol to its column; rate constants get -1.
	col := make([]int32, s.Syms.Len())
	for i := range col {
		col[i] = -1
	}
	sym := make([]expr.Sym, len(s.Species))
	for c, name := range s.Species {
		sym[c] = s.Syms.Sym(name)
		col[sym[c]] = int32(c)
	}
	cols := make([]*expr.Sum, len(s.Species))
	var touched []int
	var entries []JacEntry
	for row, eq := range s.Equations {
		touched = expr.Diff(eq.RHS, col, cols, touched[:0])
		// Symbol order is canonical name order.
		slices.SortFunc(touched, func(a, b int) int { return int(sym[a]) - int(sym[b]) })
		for _, c := range touched {
			entries = append(entries, JacEntry{Row: row, Col: c, RHS: cols[c]})
			cols[c] = nil
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
		Syms:    s.Syms,
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
