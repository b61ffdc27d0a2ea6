package opt

import "rms/internal/expr"

// ts interns every name the package's hand-built trees and sums use.
var ts = expr.NewSymbols("K_1", "K_2", "K_3", "K_A", "K_B", "K_C", "K_CD", "K_ab", "K_d", "K_x",
	"k1", "k2", "k3", "A", "B", "C", "D", "E", "F", "G", "P")

// v returns the shared leaf of a name.
func v(name string) expr.Node { return ts.Var(ts.Sym(name)) }

// prod is expr.NewProduct over the named factors.
func prod(coef float64, names ...string) expr.Product {
	fs := make([]expr.Sym, len(names))
	for i, n := range names {
		fs[i] = ts.Sym(n)
	}
	return expr.NewProduct(coef, fs...)
}
