package expr

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Product is a single product term of an ODE right-hand side:
//
//	Coef * Factors[0] * Factors[1] * ... * Factors[n-1]
//
// Factors is kept sorted (symbol order is TermLess order) and may contain
// repeats (A*A). The coefficient carries the sign of the term, so a Sum
// is always a plain sum of its products. Products are values whose
// Factors are never written after construction, so products may share
// one factor slice.
type Product struct {
	Coef    float64
	Factors []Sym
}

// NewProduct builds a canonical product from a coefficient and factors in
// any order.
func NewProduct(coef float64, factors ...Sym) Product {
	fs := slices.Clone(factors)
	slices.Sort(fs)
	return Product{Coef: coef, Factors: fs}
}

// Contains reports whether the factor occurs in the product.
func (p Product) Contains(s Sym) bool {
	_, ok := slices.BinarySearch(p.Factors, s)
	return ok
}

// Divide returns p with one occurrence of the factor removed — the "p/k"
// of the distributive optimization (Fig. 6, line 11). It panics if the
// factor is absent; callers select products via Contains first.
func (p Product) Divide(s Sym) Product {
	i, ok := slices.BinarySearch(p.Factors, s)
	if !ok {
		panic(fmt.Sprintf("expr: Divide(%d) on product %v: factor not present", s, p.Factors))
	}
	return Product{Coef: p.Coef, Factors: slices.Delete(slices.Clone(p.Factors), i, i+1)}
}

// Degree returns the number of variable factors (with multiplicity).
func (p Product) Degree() int { return len(p.Factors) }

// IsConstant reports whether the product has no variable factors.
func (p Product) IsConstant() bool { return len(p.Factors) == 0 }

// Eval computes the product's value in the given environment, reading
// each factor by its name in syms. Missing variables evaluate as 0 so
// that freshly created species default to zero concentration, matching
// the equation generator's conventions.
func (p Product) Eval(syms *Symbols, env map[string]float64) float64 {
	v := p.Coef
	for _, f := range p.Factors {
		v *= env[syms.Name(f)]
	}
	return v
}

// Format renders the product with the names of syms in the style of the
// paper's figures, e.g. "2*K_A*B*C" or "-K_C*C*D".
func (p Product) Format(syms *Symbols) string {
	var b strings.Builder
	switch {
	case p.Coef == 1 && len(p.Factors) > 0:
		// omit unit coefficient
	case p.Coef == -1 && len(p.Factors) > 0:
		b.WriteByte('-')
	default:
		b.WriteString(formatCoef(p.Coef))
		if len(p.Factors) > 0 {
			b.WriteByte('*')
		}
	}
	for i, f := range p.Factors {
		if i > 0 {
			b.WriteByte('*')
		}
		b.WriteString(syms.Name(f))
	}
	return b.String()
}

func formatCoef(c float64) string {
	if c == float64(int64(c)) && c < 1e15 && c > -1e15 {
		return strconv.FormatInt(int64(c), 10)
	}
	return strconv.FormatFloat(c, 'g', -1, 64)
}

// compareProducts orders products canonically: by factor list
// (element-wise in symbol order, a proper prefix first), then by
// coefficient. Sums keep their products in this order.
func compareProducts(a, b Product) int {
	if c := slices.Compare(a.Factors, b.Factors); c != 0 {
		return c
	}
	return cmp.Compare(a.Coef, b.Coef)
}
