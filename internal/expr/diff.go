package expr

// Diff differentiates s with respect to all of its variables in one pass
// over its products in canonical order. Mass-action right-hand sides are
// polynomials in the concentrations, so each product follows the power
// rule: for every distinct factor v of multiplicity m with col[v] ≥ 0,
// the product adds m·Coef times itself with one occurrence of v removed
// to d[col[v]]. Factors with col[v] < 0 (rate constants) are constants.
// Products add to their columns in Products() order, so each
// derivative's products keep that insertion order.
//
// Every entry of d must be nil on entry; Diff allocates the columns it
// touches, appends each touched column to touched in first-touch order
// and returns it. The caller takes the derivatives and resets those
// entries to nil before the next call, so one d serves a whole system.
//
// The analytic Jacobian generator uses this to differentiate every ODE
// with respect to every species it references in time linear in the
// size of the equation, giving the stiff solver an exact Jacobian at a
// fraction of the finite-difference cost.
func Diff(s *Sum, col []int32, d []*Sum, touched []int) []int {
	// The derivatives' factor lists are carved out of one buffer: each
	// is a full slice expression, so none can grow into the next.
	var buf []Sym
	for _, p := range s.Products() {
		fs := p.Factors
		for i := 0; i < len(fs); {
			j := i + 1
			for j < len(fs) && fs[j] == fs[i] {
				j++
			}
			if c := col[fs[i]]; c >= 0 {
				start := len(buf)
				buf = append(append(buf, fs[:i]...), fs[i+1:]...)
				if d[c] == nil {
					d[c] = NewSum(s.syms)
					touched = append(touched, int(c))
				}
				d[c].Add(Product{Coef: p.Coef * float64(j-i), Factors: buf[start:len(buf):len(buf)]})
			}
			i = j
		}
	}
	return touched
}
