// Package opt implements the paper's algebraic optimizer: the equation
// simplification of §3.1 (performed on the fly by the equation table, see
// package eqgen), the distributive optimization of §3.2 (Fig. 6), and the
// domain-specific common-subexpression elimination of §3.3 (Fig. 7).
//
// The optimizer exploits the domain facts the paper calls out: generated
// variables are never aliased, each is written once per solver iteration,
// rate constants with equal values have already been renamed to one name
// by the rate-constant information processor, and every expression is held
// in a canonical fully non-distributed sum-of-products form, so a
// variable's name can stand for its value and prefix comparison of
// canonically ordered term lists finds all the redundancy general value
// numbering would.
package opt

import (
	"math"
	"slices"

	"rms/internal/expr"
)

// DistOpt performs the distributive optimization of Fig. 6 on one
// equation's flat sum of products, factoring out the most frequently
// occurring term, recursing into the factored group, and repeating on the
// remainder:
//
//	k1*B*C + k1*B*D + k1*E*F  →  k1*(B*(C+D) + E*F)
//
// The term chosen at each step is the one contained in the most products
// (ties break toward the canonically smallest term, so rate constants are
// preferred — they are shared the most in mass-action systems). A term
// contained in only one product is never factored: pulling a factor out of
// a single product rewrites x*(y) at no gain.
func DistOpt(s *expr.Sum) expr.Node {
	d := &distPass{syms: s.Syms()}
	return d.distOpt(s.Products())
}

// distPass holds one DistOpt call's buffers: every divided product's
// factors are carved out of arena, and mostFrequent counts in seen.
type distPass struct {
	syms  *expr.Symbols
	arena []expr.Sym
	seen  []expr.Sym
}

func (d *distPass) distOpt(ps []expr.Product) expr.Node {
	var resTerms []expr.Node
	remaining := ps
	for len(remaining) > 0 {
		k, c := d.mostFrequent(remaining)
		if c <= 1 {
			// No term is shared by two products; emit the rest verbatim.
			for _, p := range remaining {
				resTerms = append(resTerms, expr.ProductNode(d.syms, p))
			}
			break
		}
		buf := make([]expr.Product, len(remaining))
		divided, rest := buf[:0:c], buf[c:c]
		for _, p := range remaining {
			if p.Contains(k) {
				divided = append(divided, d.divide(p, k))
			} else {
				rest = append(rest, p)
			}
		}
		inner := d.distOpt(divided)
		resTerms = append(resTerms, expr.NewMul(d.syms.Var(k), inner))
		remaining = rest
	}
	return normalizeSign(resTerms)
}

// divide is Product.Divide with the result's factors taken from the
// arena (a full slice expression, so no later product can overwrite
// them).
func (d *distPass) divide(p expr.Product, k expr.Sym) expr.Product {
	i, _ := slices.BinarySearch(p.Factors, k)
	start := len(d.arena)
	d.arena = append(append(d.arena, p.Factors[:i]...), p.Factors[i+1:]...)
	return expr.Product{Coef: p.Coef, Factors: d.arena[start:len(d.arena):len(d.arena)]}
}

// normalizeSign builds the result sum in coefficient-normal form:
//
//   - a constant factor common to every term (in absolute value) is
//     pulled out — 2*A + 2*B becomes 2*(A + B), saving a multiply per
//     term (the §3.1 merge of equivalent-site instances produces whole
//     groups sharing one stoichiometric coefficient);
//   - a common -1 is pulled out when every term is negative, so
//     A*(-K_a - K_b) becomes -A*(K_a + K_b), letting the CSE pass share
//     a subexpression between the equations that add it and the
//     equations that subtract it at no cost — the sign folds into the
//     enclosing product.
func normalizeSign(terms []expr.Node) expr.Node {
	if len(terms) == 0 {
		return expr.NewAdd()
	}
	// Common absolute coefficient.
	common := math.Abs(constOf(terms[0]))
	for _, t := range terms[1:] {
		if math.Abs(constOf(t)) != common {
			common = 1
			break
		}
	}
	if common != 1 && common != 0 && len(terms) > 1 {
		scaled := make([]expr.Node, len(terms))
		for i, t := range terms {
			scaled[i] = divideConst(t, common)
		}
		return expr.NewMul(expr.NewConst(common), normalizeSign(scaled))
	}
	for _, t := range terms {
		if !isNegativeTerm(t) {
			return expr.NewAdd(terms...)
		}
	}
	flipped := make([]expr.Node, len(terms))
	for i, t := range terms {
		flipped[i] = negateNode(t)
	}
	return expr.NewMul(expr.NewConst(-1), expr.NewAdd(flipped...))
}

// divideConst divides a term's constant factor by c exactly (c equals the
// factor in absolute value, so the result is ±1 and folds into the sign).
func divideConst(n expr.Node, c float64) expr.Node {
	switch x := n.(type) {
	case *expr.Const:
		return expr.NewConst(x.Val / c)
	case *expr.Mul:
		kids := make([]expr.Node, 0, len(x.Factors))
		divided := false
		for _, f := range x.Factors {
			if k, ok := f.(*expr.Const); ok && !divided {
				kids = append(kids, expr.NewConst(k.Val/c))
				divided = true
				continue
			}
			kids = append(kids, f)
		}
		if !divided {
			kids = append(kids, expr.NewConst(1/c))
		}
		return expr.NewMul(kids...)
	default:
		return expr.NewMul(expr.NewConst(1/c), n)
	}
}

// constOf returns a term's constant factor (1 when none).
func constOf(n expr.Node) float64 {
	switch x := n.(type) {
	case *expr.Const:
		return x.Val
	case *expr.Mul:
		for _, f := range x.Factors {
			if c, ok := f.(*expr.Const); ok {
				return c.Val
			}
		}
	}
	return 1
}

// isNegativeTerm reports whether a term carries a negative constant
// factor.
func isNegativeTerm(n expr.Node) bool {
	switch x := n.(type) {
	case *expr.Const:
		return x.Val < 0
	case *expr.Mul:
		for _, f := range x.Factors {
			if c, ok := f.(*expr.Const); ok {
				return c.Val < 0
			}
		}
	}
	return false
}

// negateNode returns -n in canonical form.
func negateNode(n expr.Node) expr.Node {
	return expr.NewMul(expr.NewConst(-1), n)
}

// mostFrequent returns the term contained in the most products and that
// count; ties go to the canonically smallest term (the smallest symbol).
// Each product counts once per distinct term it contains (a squared
// factor does not double-count: factoring removes one occurrence per
// product, so product-level frequency is what predicts the gain).
func (d *distPass) mostFrequent(ps []expr.Product) (expr.Sym, int) {
	seen := d.seen[:0]
	for _, p := range ps {
		for i, f := range p.Factors {
			if i == 0 || f != p.Factors[i-1] { // Factors are sorted; dedup adjacent repeats.
				seen = append(seen, f)
			}
		}
	}
	slices.Sort(seen)
	d.seen = seen
	var best expr.Sym
	bestC := 0
	for i := 0; i < len(seen); {
		j := i + 1
		for j < len(seen) && seen[j] == seen[i] {
			j++
		}
		if j-i > bestC {
			best, bestC = seen[i], j-i
		}
		i = j
	}
	return best, bestC
}
