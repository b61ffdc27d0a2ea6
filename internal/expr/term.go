package expr

import (
	"fmt"
	"slices"
)

// IsRateConstant reports whether name denotes a kinetic rate constant.
// By convention (following the paper's reaction networks, Fig. 3) rate
// constants are the names that begin with 'K' or 'k' followed by an
// underscore or digit, e.g. "K_A", "K_CD", "k1". Species names never take
// this form; the RDL front end rejects species declared with such names.
func IsRateConstant(name string) bool {
	if name == "" {
		return false
	}
	if name[0] != 'K' && name[0] != 'k' {
		return false
	}
	if len(name) == 1 {
		return true
	}
	c := name[1]
	return c == '_' || (c >= '0' && c <= '9')
}

// TermLess is the global canonical order on term names: rate constants
// sort before species, and within each class names compare
// lexicographically. Every canonical form in the suite (products, sums,
// factored trees) sorts with this comparator so that equal values have
// equal printed forms and common-subexpression matching can compare
// prefixes directly.
func TermLess(a, b string) bool {
	ka, kb := IsRateConstant(a), IsRateConstant(b)
	if ka != kb {
		return ka
	}
	return a < b
}

// TermCompare returns -1, 0 or +1 ordering a and b by TermLess.
func TermCompare(a, b string) int {
	switch {
	case a == b:
		return 0
	case TermLess(a, b):
		return -1
	default:
		return 1
	}
}

// Sym is an interned term name: a species or a rate constant of one
// compile. A Symbols table numbers its names in TermLess order, so two
// symbols of one table compare as their names do under TermCompare.
// Symbols of different tables must never meet.
type Sym int32

// Symbols is the symbol table of one compile: every species and
// rate-constant name, interned once into a dense Sym numbered in
// TermLess order, and the one shared Var leaf of each. Canonical forms
// order, match and key their terms by Sym; names come back only where
// they are printed or evaluated by name.
type Symbols struct {
	names []string
	vars  []Var
	index map[string]Sym
}

// NewSymbols interns the given names (duplicates collapse).
func NewSymbols(names ...string) *Symbols {
	sorted := slices.Clone(names)
	slices.SortFunc(sorted, TermCompare)
	sorted = slices.Compact(sorted)
	t := &Symbols{
		names: sorted,
		vars:  make([]Var, len(sorted)),
		index: make(map[string]Sym, len(sorted)),
	}
	for i, name := range sorted {
		t.index[name] = Sym(i)
		t.vars[i] = Var{Sym: Sym(i), Name: name}
	}
	return t
}

// Len returns the number of symbols.
func (t *Symbols) Len() int { return len(t.names) }

// Name returns the name of s.
func (t *Symbols) Name(s Sym) string { return t.names[s] }

// Lookup returns the symbol of name, if it is interned.
func (t *Symbols) Lookup(name string) (Sym, bool) {
	s, ok := t.index[name]
	return s, ok
}

// Sym returns the symbol of name; it panics if the name is not interned.
func (t *Symbols) Sym(name string) Sym {
	s, ok := t.index[name]
	if !ok {
		panic(fmt.Sprintf("expr: symbol %q not interned", name))
	}
	return s
}

// Var returns the shared variable leaf of s.
func (t *Symbols) Var(s Sym) *Var { return &t.vars[s] }
