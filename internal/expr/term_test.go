package expr

import "testing"

func TestIsRateConstant(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"K_A", true},
		{"K_CD", true},
		{"k1", true},
		{"k", true},
		{"K", true},
		{"K9", true},
		{"k_off", true},
		{"A", false},
		{"B2", false},
		{"Krypton", false}, // 'K' followed by a letter is a species name
		{"kettle", false},
		{"", false},
		{"S8", false},
		{"temp", false},
	}
	for _, c := range cases {
		if got := IsRateConstant(c.name); got != c.want {
			t.Errorf("IsRateConstant(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTermLessConstantsFirst(t *testing.T) {
	if !TermLess("K_A", "A") {
		t.Error("rate constant K_A must sort before species A")
	}
	if TermLess("A", "K_A") {
		t.Error("species A must not sort before rate constant K_A")
	}
	if !TermLess("A", "B") {
		t.Error("A must sort before B")
	}
	if !TermLess("K_A", "K_B") {
		t.Error("K_A must sort before K_B")
	}
	if TermLess("A", "A") {
		t.Error("TermLess must be irreflexive")
	}
}

func TestTermCompareConsistent(t *testing.T) {
	names := []string{"K_A", "K_B", "k1", "A", "B", "C", "S8"}
	for _, a := range names {
		for _, b := range names {
			c := TermCompare(a, b)
			switch {
			case a == b && c != 0:
				t.Errorf("TermCompare(%q,%q) = %d, want 0", a, b, c)
			case TermLess(a, b) && c != -1:
				t.Errorf("TermCompare(%q,%q) = %d, want -1", a, b, c)
			case TermLess(b, a) && c != 1:
				t.Errorf("TermCompare(%q,%q) = %d, want 1", a, b, c)
			}
		}
	}
}

// Products order by factor list element-wise in symbol order (rate
// constants lead), a proper prefix first, then by coefficient.
func TestCompareNameSlices(t *testing.T) {
	cases := []struct {
		a, b Product
		want int
	}{
		{prod(1, "A"), prod(1, "A"), 0},
		{prod(1, "A"), prod(1, "B"), -1},
		{prod(1, "A"), prod(1, "A", "B"), -1},
		{prod(1, "A", "B"), prod(1, "A"), 1},
		{prod(1, "K_A", "A"), prod(1, "A"), -1}, // constants lead
		{prod(1), prod(1), 0},
		{prod(1), prod(1, "A"), -1},
		{prod(2, "A"), prod(3, "A"), -1},
	}
	for _, c := range cases {
		if got := compareProducts(c.a, c.b); got != c.want {
			t.Errorf("compareProducts(%s,%s) = %d, want %d", c.a.Format(ts), c.b.Format(ts), got, c.want)
		}
	}
}

// Symbols number names in TermLess order, whatever order they are
// interned in, and collapse duplicates.
func TestSymbolsTermOrder(t *testing.T) {
	tab := NewSymbols("B", "k1", "A", "K_A", "B", "S8")
	want := []string{"K_A", "k1", "A", "B", "S8"}
	if tab.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(want))
	}
	for i, name := range want {
		s := tab.Sym(name)
		if int(s) != i || tab.Name(s) != name || tab.Var(s).Name != name || tab.Var(s).Sym != s {
			t.Errorf("%s: symbol %d, want %d", name, s, i)
		}
	}
	if _, ok := tab.Lookup("C"); ok {
		t.Error("Lookup found a name never interned")
	}
}
