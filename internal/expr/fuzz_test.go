package expr

import (
	"cmp"
	"strings"
	"testing"
)

// fuzzNames splits the input into names of the term alphabet and gives
// every third one a rate-constant spelling (K_…, k<digit>, a bare k or
// K), so each draw mixes rate constants with species.
func fuzzNames(data string) []string {
	fields := strings.FieldsFunc(data, func(r rune) bool {
		return !(r == '_' || r >= '0' && r <= '9' || r >= 'A' && r <= 'Z' || r >= 'a' && r <= 'z')
	})
	if len(fields) > 48 {
		fields = fields[:48]
	}
	prefixes := []string{"K_", "k", "K", "k_"}
	for i, f := range fields {
		if i%3 == 0 {
			fields[i] = prefixes[i%len(prefixes)] + f[len(f)/2:]
		}
	}
	return fields
}

// nameCompare is the name-based order of two factor lists (element-wise
// TermCompare, a proper prefix first) then of the coefficients: the
// comparator the symbol order replaced.
func nameCompare(t *Symbols, a, b Product) int {
	for i := range min(len(a.Factors), len(b.Factors)) {
		if c := TermCompare(t.Name(a.Factors[i]), t.Name(b.Factors[i])); c != 0 {
			return c
		}
	}
	if c := cmp.Compare(len(a.Factors), len(b.Factors)); c != 0 {
		return c
	}
	return cmp.Compare(a.Coef, b.Coef)
}

// FuzzSymbolOrder holds the interned symbol order to the name order it
// stands for: symbol order is TermLess order, product and node
// comparisons over symbols agree with the name-based comparators, and
// every name round-trips through its symbol.
func FuzzSymbolOrder(f *testing.F) {
	f.Add("K_A k1 k A B S8 Krypton kettle K9 XA_1 XA_10 XA_2", []byte{0, 1, 2, 3, 9, 4, 4, 7})
	f.Add("A a _ Z z 0 K k K_ k_ Kz kz", []byte{5, 5, 5, 1, 0})
	f.Fuzz(func(t *testing.T, data string, picks []byte) {
		names := fuzzNames(data)
		if len(names) == 0 {
			return
		}
		tab := NewSymbols(names...)
		for _, n := range names {
			s, ok := tab.Lookup(n)
			if !ok || tab.Sym(n) != s || tab.Name(s) != n || tab.Var(s).Name != n || tab.Var(s).Sym != s {
				t.Fatalf("%q does not round-trip through symbol %d", n, s)
			}
		}
		for _, a := range names {
			for _, b := range names {
				sa, sb := tab.Sym(a), tab.Sym(b)
				if (sa < sb) != TermLess(a, b) || (sa == sb) != (a == b) {
					t.Fatalf("symbols %d (%q) and %d (%q) disagree with TermLess", sa, a, sb, b)
				}
				if got, want := CompareNodes(tab.Var(sa), tab.Var(sb)), TermCompare(a, b); cmp.Compare(got, 0) != want {
					t.Fatalf("CompareNodes(%q, %q) = %d, TermCompare %d", a, b, got, want)
				}
			}
		}
		// Products and sums of products drawn by picks.
		var ps []Product
		var terms []Node
		for i := 0; i+1 < len(picks) && len(ps) < 16; i += 2 {
			fs := make([]Sym, 1+int(picks[i])%4)
			for j := range fs {
				fs[j] = Sym((int(picks[i+1]) + 7*j) % tab.Len())
			}
			p := NewProduct(float64(int(picks[i])%5-2), fs...)
			ps = append(ps, p)
			terms = append(terms, ProductNode(tab, p))
		}
		for _, p := range ps {
			for _, q := range ps {
				if got, want := compareProducts(p, q), nameCompare(tab, p, q); got != want {
					t.Fatalf("compareProducts(%s, %s) = %d, by name %d", p.Format(tab), q.Format(tab), got, want)
				}
			}
		}
		// A sum's factored form orders its terms the same way whatever
		// order they arrive in.
		if len(terms) > 1 {
			a := NewAdd(terms...)
			rev := make([]Node, len(terms))
			for i, n := range terms {
				rev[len(terms)-1-i] = n
			}
			if b := NewAdd(rev...); a.String() != b.String() {
				t.Fatalf("NewAdd depends on argument order: %s vs %s", a, b)
			}
		}
	})
}
