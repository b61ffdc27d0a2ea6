package expr

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Node is a factored-expression tree. The distributive optimization turns a
// flat Sum into a Node; common-subexpression elimination rewrites Nodes in
// place, introducing TempRef leaves that name compiler-generated
// temporaries.
//
// Composite nodes and temporaries are mutable (the optimizer rewrites
// children and renumbers temporaries), so callers that need a stable
// snapshot must Clone first.
type Node interface {
	// Eval computes the node's value, reading variables by name from env
	// and temporaries from temps.
	Eval(env map[string]float64, temps []float64) float64
	// Clone returns a deep copy. Var leaves are immutable and shared, so
	// a Var clones to itself.
	Clone() Node
	// rank orders node classes for canonical sorting.
	rank() int
	fmt.Stringer
}

// Var is a reference to a variable: a species concentration or a kinetic
// rate constant. Each symbol of a Symbols table has one shared Var
// (Symbols.Var); canonical orders compare Sym, and Name is kept for
// printing and by-name evaluation.
type Var struct {
	Sym  Sym
	Name string
}

// Const is a numeric literal (signs and merged stoichiometric coefficients
// end up here).
type Const struct{ Val float64 }

// TempRef names a temporary introduced by common-subexpression
// elimination; ID indexes the temp array in generated code.
type TempRef struct{ ID int }

// Mul is a product of factors, kept in canonical order.
type Mul struct{ Factors []Node }

// Add is a sum of terms, kept in canonical order.
type Add struct{ Terms []Node }

// NewConst returns a literal node.
func NewConst(v float64) *Const { return &Const{Val: v} }

// NewTempRef returns a temporary reference node.
func NewTempRef(id int) *TempRef { return &TempRef{ID: id} }

// NewMul builds a canonical product node. Single-factor products collapse
// to the factor; nested Muls are flattened; constant factors are merged
// into a single leading constant (omitted when exactly 1).
func NewMul(factors ...Node) Node {
	flat := make([]Node, 0, len(factors))
	coef := 1.0
	for _, f := range factors {
		switch x := f.(type) {
		case *Mul:
			for _, g := range x.Factors {
				if c, ok := g.(*Const); ok {
					coef *= c.Val
				} else {
					flat = append(flat, g)
				}
			}
		case *Const:
			coef *= x.Val
		default:
			flat = append(flat, f)
		}
	}
	switch {
	case coef == 0:
		return NewConst(0)
	case len(flat) == 0:
		return NewConst(coef)
	case len(flat) == 1 && coef == 1:
		return flat[0]
	case coef != 1:
		flat = append(flat, NewConst(coef))
	}
	sortNodes(flat)
	return &Mul{Factors: flat}
}

// NewAdd builds a canonical sum node. Single-term sums collapse to the
// term; nested Adds are flattened; constant terms merge.
func NewAdd(terms ...Node) Node {
	flat := make([]Node, 0, len(terms))
	c := 0.0
	for _, t := range terms {
		switch x := t.(type) {
		case *Add:
			for _, g := range x.Terms {
				if k, ok := g.(*Const); ok {
					c += k.Val
				} else {
					flat = append(flat, g)
				}
			}
		case *Const:
			c += x.Val
		default:
			flat = append(flat, t)
		}
	}
	switch {
	case len(flat) == 0:
		return NewConst(c)
	case len(flat) == 1 && c == 0:
		return flat[0]
	case c != 0:
		flat = append(flat, NewConst(c))
	}
	sortNodes(flat)
	return &Add{Terms: flat}
}

func (v *Var) rank() int     { return 1 }
func (c *Const) rank() int   { return 0 }
func (t *TempRef) rank() int { return 2 }
func (m *Mul) rank() int     { return 3 }
func (a *Add) rank() int     { return 4 }

// CompareNodes is the canonical total order on expression trees: constants
// first, then variables (in symbol order, which is TermLess order, so rate
// constants lead), then temporaries, products and sums; composites compare
// element-wise. Variables must come from one Symbols table.
func CompareNodes(a, b Node) int {
	ra, rb := a.rank(), b.rank()
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch x := a.(type) {
	case *Const:
		y := b.(*Const)
		switch {
		case x.Val < y.Val:
			return -1
		case x.Val > y.Val:
			return 1
		}
		return 0
	case *Var:
		return cmp.Compare(x.Sym, b.(*Var).Sym)
	case *TempRef:
		return x.ID - b.(*TempRef).ID
	case *Mul:
		return compareNodeSlices(x.Factors, b.(*Mul).Factors)
	case *Add:
		return compareNodeSlices(x.Terms, b.(*Add).Terms)
	}
	panic("expr: unknown node type")
}

func compareNodeSlices(a, b []Node) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := CompareNodes(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

func sortNodes(ns []Node) {
	slices.SortStableFunc(ns, CompareNodes)
}

// Eval implementations. Missing variables read as 0, matching Sum.Eval.

func (v *Var) Eval(env map[string]float64, _ []float64) float64 { return env[v.Name] }
func (c *Const) Eval(_ map[string]float64, _ []float64) float64 { return c.Val }

func (t *TempRef) Eval(_ map[string]float64, temps []float64) float64 {
	if t.ID < 0 || t.ID >= len(temps) {
		return math.NaN()
	}
	return temps[t.ID]
}

func (m *Mul) Eval(env map[string]float64, temps []float64) float64 {
	v := 1.0
	for _, f := range m.Factors {
		v *= f.Eval(env, temps)
	}
	return v
}

func (a *Add) Eval(env map[string]float64, temps []float64) float64 {
	v := 0.0
	for _, t := range a.Terms {
		v += t.Eval(env, temps)
	}
	return v
}

// Clone implementations.

func (v *Var) Clone() Node     { return v }
func (c *Const) Clone() Node   { return &Const{Val: c.Val} }
func (t *TempRef) Clone() Node { return &TempRef{ID: t.ID} }

func (m *Mul) Clone() Node {
	fs := make([]Node, len(m.Factors))
	for i, f := range m.Factors {
		fs[i] = f.Clone()
	}
	return &Mul{Factors: fs}
}

func (a *Add) Clone() Node {
	ts := make([]Node, len(a.Terms))
	for i, t := range a.Terms {
		ts[i] = t.Clone()
	}
	return &Add{Terms: ts}
}

// String renders infix source form (the form the C code generator emits).

func (v *Var) String() string     { return v.Name }
func (c *Const) String() string   { return formatCoef(c.Val) }
func (t *TempRef) String() string { return fmt.Sprintf("temp[%d]", t.ID) }

func (m *Mul) String() string {
	// Render a leading ±1 constant as a bare sign.
	fs := m.Factors
	prefix := ""
	if len(fs) > 0 {
		if c, ok := constFactor(fs); ok {
			if c.Val == -1 && len(fs) > 1 {
				prefix = "-"
				fs = withoutConst(fs)
			}
		}
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		s := f.String()
		if _, ok := f.(*Add); ok {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return prefix + strings.Join(parts, "*")
}

func (a *Add) String() string {
	var b strings.Builder
	for i, t := range a.Terms {
		s := t.String()
		if i == 0 {
			b.WriteString(s)
			continue
		}
		if strings.HasPrefix(s, "-") {
			b.WriteString(" - ")
			b.WriteString(s[1:])
		} else {
			b.WriteString(" + ")
			b.WriteString(s)
		}
	}
	return b.String()
}

func constFactor(fs []Node) (*Const, bool) {
	for _, f := range fs {
		if c, ok := f.(*Const); ok {
			return c, true
		}
	}
	return nil, false
}

func withoutConst(fs []Node) []Node {
	out := make([]Node, 0, len(fs))
	for _, f := range fs {
		if _, ok := f.(*Const); !ok {
			out = append(out, f)
		}
	}
	return out
}

// CountOps returns the static (mul, add/sub) operation counts of the tree
// as emitted: an n-factor product costs n-1 multiplies, with a ±1
// coefficient free (it prints as a sign); an n-term sum costs n-1
// additions/subtractions.
func CountOps(n Node) (muls, adds int) {
	switch x := n.(type) {
	case *Var, *Const, *TempRef:
		return 0, 0
	case *Mul:
		cost := len(x.Factors) - 1
		if c, ok := constFactor(x.Factors); ok && (c.Val == 1 || c.Val == -1) && len(x.Factors) > 1 {
			cost--
		}
		muls = cost
		for _, f := range x.Factors {
			m, a := CountOps(f)
			muls += m
			adds += a
		}
		return muls, adds
	case *Add:
		adds = len(x.Terms) - 1
		for _, t := range x.Terms {
			m, a := CountOps(t)
			muls += m
			adds += a
		}
		return muls, adds
	}
	panic("expr: unknown node type")
}

// Width returns the number of immediate terms/factors of a composite node,
// or 1 for leaves. The CSE pass indexes subexpressions by this width.
func Width(n Node) int {
	switch x := n.(type) {
	case *Mul:
		return len(x.Factors)
	case *Add:
		return len(x.Terms)
	default:
		return 1
	}
}

// Walk visits n and every descendant in depth-first pre-order. The visitor
// may mutate children of already-visited nodes; newly installed subtrees
// are not revisited.
func Walk(n Node, visit func(Node)) {
	visit(n)
	switch x := n.(type) {
	case *Mul:
		for _, f := range x.Factors {
			Walk(f, visit)
		}
	case *Add:
		for _, t := range x.Terms {
			Walk(t, visit)
		}
	}
}

// Variables returns the distinct symbols referenced by the tree, in
// canonical order.
func Variables(n Node) []Sym {
	var out []Sym
	Walk(n, func(m Node) {
		if v, ok := m.(*Var); ok {
			out = append(out, v.Sym)
		}
	})
	slices.Sort(out)
	return slices.Compact(out)
}
