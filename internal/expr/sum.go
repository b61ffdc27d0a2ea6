package expr

import (
	"slices"
	"strings"
)

// Sum is a flat sum of products — the canonical, fully non-distributed
// representation the paper argues for in §3.3. The equation generator
// produces one Sum per molecule (the right-hand side of d[M]/dt), and the
// optimizer consumes Sums.
//
// Invariants maintained by the methods:
//   - no two products share a factor list (like terms are merged, §3.1);
//   - no product has a zero coefficient.
//
// Products() returns them sorted by compareProducts.
type Sum struct {
	syms     *Symbols
	products []Product
	// index finds a like term's position in products by factor list.
	index TupleIndex[Sym]
}

// NewSum builds an empty sum over the symbols of syms.
func NewSum(syms *Symbols) *Sum {
	return &Sum{syms: syms}
}

// SumOf builds a canonical sum from the given products, merging like terms.
func SumOf(syms *Symbols, ps ...Product) *Sum {
	s := NewSum(syms)
	for _, p := range ps {
		s.Add(p)
	}
	return s
}

// Syms returns the symbol table the sum's factors belong to.
func (s *Sum) Syms() *Symbols { return s.syms }

// Add merges a product into the sum, combining it with an existing like
// term when one exists. This is the on-the-fly equation simplification of
// §3.1: after every Add, each product differs from every other in at least
// one non-constant term. The sum keeps p's factor slice, which the caller
// must not modify afterwards.
func (s *Sum) Add(p Product) {
	if p.Coef == 0 {
		return
	}
	i, slot := s.index.Find(p.Factors, s.factorsAt)
	if i < 0 {
		s.products = append(s.products, p)
		s.index.Insert(slot, int32(len(s.products)-1), s.factorsAt)
		return
	}
	s.products[i].Coef += p.Coef
	if s.products[i].Coef != 0 {
		return
	}
	// The terms cancel: move the last product into i's place.
	s.index.Delete(slot)
	last := int32(len(s.products) - 1)
	if i != last {
		_, moved := s.index.Find(s.products[last].Factors, s.factorsAt)
		s.index.Move(moved, i)
		s.products[i] = s.products[last]
	}
	s.products = s.products[:last]
}

// factorsAt returns the factor list of the product at position i.
func (s *Sum) factorsAt(i int32) []Sym { return s.products[i].Factors }

// AddSum merges every product of t into s.
func (s *Sum) AddSum(t *Sum) {
	for _, p := range t.products {
		s.Add(p)
	}
}

// Scale multiplies every coefficient by c. Scaling by 0 empties the sum.
func (s *Sum) Scale(c float64) {
	if c == 0 {
		s.products, s.index = nil, TupleIndex[Sym]{}
		return
	}
	for i := range s.products {
		s.products[i].Coef *= c
	}
}

// Len returns the number of products.
func (s *Sum) Len() int { return len(s.products) }

// IsZero reports whether the sum has no products.
func (s *Sum) IsZero() bool { return len(s.products) == 0 }

// Products returns a copy of the products in canonical order.
func (s *Sum) Products() []Product {
	ps := make([]Product, len(s.products))
	copy(ps, s.products)
	// Factor lists are distinct, so the order has no ties.
	slices.SortFunc(ps, compareProducts)
	return ps
}

// Clone returns a copy of the sum that changes independently of s.
func (s *Sum) Clone() *Sum {
	return &Sum{
		syms:     s.syms,
		products: slices.Clone(s.products),
		index:    s.index.Clone(),
	}
}

// Eval computes the sum's value in the given environment, reading each
// factor by its name.
func (s *Sum) Eval(env map[string]float64) float64 {
	v := 0.0
	for _, p := range s.products {
		v += p.Eval(s.syms, env)
	}
	return v
}

// Variables returns the distinct symbols referenced by the sum, in
// canonical order.
func (s *Sum) Variables() []Sym {
	var out []Sym
	for _, p := range s.products {
		out = append(out, p.Factors...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// CountOps returns the static multiplication and addition/subtraction
// counts of the sum as it would be emitted naively, matching how Table 1 of
// the paper counts operations: each product of d factors costs d-1
// multiplies, plus one more if its coefficient is neither 1 nor -1; joining
// n products costs n-1 additions/subtractions (a leading minus folds into
// the first product's coefficient at no cost).
func (s *Sum) CountOps() (muls, adds int) {
	for _, p := range s.products {
		if d := p.Degree(); d > 0 {
			muls += d - 1
			if p.Coef != 1 && p.Coef != -1 {
				muls++
			}
		}
	}
	if n := len(s.products); n > 1 {
		adds = n - 1
	}
	return muls, adds
}

// String renders the sum in the style of the paper's figures, e.g.
// "+K_A*A + K_A*A" before simplification or "-K_C*C*D" alone.
func (s *Sum) String() string {
	ps := s.Products()
	if len(ps) == 0 {
		return "0"
	}
	var b strings.Builder
	for i, p := range ps {
		str := p.Format(s.syms)
		if i == 0 {
			b.WriteString(str)
			continue
		}
		if strings.HasPrefix(str, "-") {
			b.WriteString(" - ")
			b.WriteString(str[1:])
		} else {
			b.WriteString(" + ")
			b.WriteString(str)
		}
	}
	return b.String()
}

// Node converts the flat sum into a factored-expression tree without any
// factoring: an Add of Mul leaves. The optimizer's DistOpt replaces this
// with a properly factored tree.
func (s *Sum) Node() Node {
	ps := s.Products()
	terms := make([]Node, 0, len(ps))
	for _, p := range ps {
		terms = append(terms, ProductNode(s.syms, p))
	}
	return NewAdd(terms...)
}

// ProductNode converts one product to the canonical node NewMul builds
// from its coefficient and the shared Var leaf of each factor: a Mul of
// a leading constant (unless the coefficient is 1) and the factors in
// order, or the lone constant or factor. The product is already in
// canonical order, so the Mul is built directly.
func ProductNode(syms *Symbols, p Product) Node {
	n := len(p.Factors)
	switch {
	case p.Coef == 0:
		return NewConst(0)
	case n == 0:
		return NewConst(p.Coef)
	case n == 1 && p.Coef == 1:
		return syms.Var(p.Factors[0])
	}
	if p.Coef != 1 {
		n++
	}
	fs := make([]Node, 0, n)
	if p.Coef != 1 {
		fs = append(fs, NewConst(p.Coef))
	}
	for _, f := range p.Factors {
		fs = append(fs, syms.Var(f))
	}
	return &Mul{Factors: fs}
}
