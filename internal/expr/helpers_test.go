package expr

import (
	"fmt"
	"strings"
)

// ts interns every name the package's tests use.
var ts = NewSymbols("K", "K9", "K_1", "K_2", "K_A", "K_B", "K_C", "K_CD", "K_d", "k", "k1", "k_off",
	"A", "B", "B2", "C", "D", "E", "F", "Krypton", "S8", "Z", "kettle", "temp")

// syms interns names in ts.
func syms(names ...string) []Sym {
	out := make([]Sym, len(names))
	for i, n := range names {
		out[i] = ts.Sym(n)
	}
	return out
}

// prod is NewProduct over the named factors.
func prod(coef float64, names ...string) Product { return NewProduct(coef, syms(names...)...) }

// v returns the shared leaf of a name.
func v(name string) *Var { return ts.Var(ts.Sym(name)) }

// names spells a symbol list.
func names(ss []Sym) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = ts.Name(s)
	}
	return out
}

// pkey spells a product's factor list, "K_A*A*B".
func pkey(p Product) string { return strings.Join(names(p.Factors), "*") }

// key renders a tree's canonical structure, "(*K_A (+A B))": equal keys
// mean structurally equal trees.
func key(n Node) string {
	switch x := n.(type) {
	case *Var:
		return x.Name
	case *Const:
		return formatCoef(x.Val)
	case *TempRef:
		return fmt.Sprintf("$t%d", x.ID)
	case *Mul:
		return "(*" + keys(x.Factors) + ")"
	case *Add:
		return "(+" + keys(x.Terms) + ")"
	}
	panic("expr: unknown node type")
}

func keys(ns []Node) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = key(n)
	}
	return strings.Join(parts, " ")
}
