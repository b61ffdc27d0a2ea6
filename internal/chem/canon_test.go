package chem

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceCanonicalRanks is the Morgan refinement as first written: the
// invariant keys built with fmt, strings and maps on every round. The
// production labeller must reproduce its ranks exactly.
func referenceCanonicalRanks(m *Molecule) []int {
	n := len(m.Atoms)
	if n == 0 {
		return nil
	}
	inv := make([]string, n)
	for i, a := range m.Atoms {
		inv[i] = fmt.Sprintf("%s|%d|%d|%d|%d|%d",
			a.Element, a.Hs, a.Charge, a.Class, len(m.Neighbors(i)), m.BondOrderSum(i))
	}
	ranks := referenceDenseRanks(inv)

	adj := make([][]Bond, n)
	for _, b := range m.Bonds {
		adj[b.A] = append(adj[b.A], b)
		adj[b.B] = append(adj[b.B], b)
	}

	refine := func(r []int) []int {
		for {
			next := make([]string, n)
			for i := range next {
				var nb []string
				for _, b := range adj[i] {
					nb = append(nb, fmt.Sprintf("%d:%d", b.Order, r[b.Other(i)]))
				}
				sort.Strings(nb)
				next[i] = fmt.Sprintf("%d|%s", r[i], strings.Join(nb, ","))
			}
			nr := referenceDenseRanks(next)
			if referenceCountDistinct(nr) == referenceCountDistinct(r) {
				return nr
			}
			r = nr
		}
	}
	ranks = refine(ranks)

	for referenceCountDistinct(ranks) < n {
		byRank := make(map[int][]int)
		for i, r := range ranks {
			byRank[r] = append(byRank[r], i)
		}
		var rankVals []int
		for r := range byRank {
			rankVals = append(rankVals, r)
		}
		sort.Ints(rankVals)
		for _, r := range rankVals {
			cell := byRank[r]
			if len(cell) > 1 {
				sort.Ints(cell)
				for i := range ranks {
					if ranks[i] > r || (ranks[i] == r && i != cell[0]) {
						ranks[i]++
					}
				}
				break
			}
		}
		ranks = refine(ranks)
	}
	return ranks
}

func referenceDenseRanks(keys []string) []int {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	pos := make(map[string]int, len(sorted))
	d := 0
	for i, k := range sorted {
		if i == 0 || k != sorted[i-1] {
			pos[k] = d
			d++
		}
	}
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = pos[k]
	}
	return out
}

func referenceCountDistinct(r []int) int {
	seen := make(map[int]bool, len(r))
	for _, v := range r {
		seen[v] = true
	}
	return len(seen)
}

// referenceFragments is Fragments as first written: a BFS that asks
// Neighbors for every atom.
func referenceFragments(m *Molecule) []*Molecule {
	n := len(m.Atoms)
	if n == 0 {
		return nil
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	nc := 0
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		queue := []int{i}
		comp[i] = nc
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range m.Neighbors(v) {
				if comp[w] < 0 {
					comp[w] = nc
					queue = append(queue, w)
				}
			}
		}
		nc++
	}
	frags := make([]*Molecule, nc)
	remap := make([]int, n)
	for c := 0; c < nc; c++ {
		frags[c] = New()
	}
	for i := 0; i < n; i++ {
		remap[i] = frags[comp[i]].AddAtom(m.Atoms[i])
	}
	for _, b := range m.Bonds {
		f := frags[comp[b.A]]
		f.Bonds = append(f.Bonds, Bond{A: remap[b.A], B: remap[b.B], Order: b.Order})
	}
	return frags
}

// referenceCanonical is Canonical over the reference fragments and ranks.
func referenceCanonical(m *Molecule) string {
	frags := referenceFragments(m)
	parts := make([]string, len(frags))
	for i, f := range frags {
		parts[i] = writeCanonicalFragment(f, referenceCanonicalRanks(f))
	}
	sort.Strings(parts)
	return strings.Join(parts, ".")
}

// checkMatchesReference fails t unless canonicalRanks, Fragments and
// Canonical agree with the reference implementations on m.
func checkMatchesReference(t testing.TB, m *Molecule) {
	t.Helper()
	if got, want := canonicalRanks(m), referenceCanonicalRanks(m); !slices.Equal(got, want) {
		t.Fatalf("canonicalRanks(%s) = %v, reference %v", dumpMolecule(m), got, want)
	}
	got, want := m.Fragments(), referenceFragments(m)
	if len(got) != len(want) {
		t.Fatalf("Fragments(%s): %d fragments, reference %d", dumpMolecule(m), len(got), len(want))
	}
	for i := range got {
		if dumpMolecule(got[i]) != dumpMolecule(want[i]) {
			t.Fatalf("Fragments(%s)[%d] = %s, reference %s", dumpMolecule(m), i, dumpMolecule(got[i]), dumpMolecule(want[i]))
		}
		if g, w := canonicalRanks(got[i]), referenceCanonicalRanks(want[i]); !slices.Equal(g, w) {
			t.Fatalf("canonicalRanks(fragment %s) = %v, reference %v", dumpMolecule(got[i]), g, w)
		}
	}
	if got, want := m.Canonical(), referenceCanonical(m); got != want {
		t.Fatalf("Canonical(%s) = %q, reference %q", dumpMolecule(m), got, want)
	}
}

func dumpMolecule(m *Molecule) string {
	return fmt.Sprintf("%+v", *m)
}

// smilesFuzzCorpus returns the FuzzParseSMILES seeds and checked-in
// corpus entries.
func smilesFuzzCorpus(t *testing.T) []string {
	srcs := append([]string(nil), smilesFuzzSeeds...)
	dir := filepath.Join("testdata", "fuzz", "FuzzParseSMILES")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
			t.Fatalf("%s: unexpected corpus entry %q", e.Name(), data)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		srcs = append(srcs, s)
	}
	return srcs
}

func TestCanonicalMatchesReferenceCorpus(t *testing.T) {
	parsed := 0
	for _, src := range smilesFuzzCorpus(t) {
		m, err := ParseSMILES(src)
		if err != nil {
			continue
		}
		parsed++
		checkMatchesReference(t, m)
	}
	if parsed < 10 {
		t.Fatalf("only %d corpus entries parse", parsed)
	}
}

// randomGraph builds a seeded molecule of up to maxAtoms atoms: a forest
// of random trees (several components when the draw says so) with extra
// ring bonds, double and triple bonds, charges, classes, hydrogen counts,
// and now and then a repeated bond or a bond from an atom to itself. It
// need not be chemically valid: the labeller ranks any graph.
func randomGraph(rng *rand.Rand, maxAtoms int) *Molecule {
	n := 1 + rng.Intn(maxAtoms)
	elements := []Element{"C", "C", "C", "S", "S", "N", "O", "Zn"}
	m := New()
	for i := 0; i < n; i++ {
		a := Atom{Element: elements[rng.Intn(len(elements))], Hs: rng.Intn(4)}
		if rng.Intn(5) == 0 {
			a.Charge = rng.Intn(5) - 2
		}
		if rng.Intn(4) == 0 {
			a.Class = 1 + rng.Intn(15)
		}
		m.AddAtom(a)
	}
	order := func() int {
		switch rng.Intn(8) {
		case 0, 1:
			return 2
		case 2:
			return 3
		}
		return 1
	}
	components := 1 + rng.Intn(3)
	for i := 1; i < n; i++ {
		if rng.Intn(n) < components-1 {
			continue // start another tree
		}
		m.Bonds = append(m.Bonds, Bond{A: rng.Intn(i), B: i, Order: order()})
	}
	for r := rng.Intn(1 + n/4); r > 0; r-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b && rng.Intn(8) != 0 {
			continue
		}
		if _, dup := m.BondBetween(a, b); dup && rng.Intn(8) != 0 {
			continue
		}
		m.Bonds = append(m.Bonds, Bond{A: a, B: b, Order: order()})
	}
	return m
}

func TestCanonicalMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20231114))
	cells := 0
	for i := 0; i < 1500; i++ {
		m := randomGraph(rng, 60)
		checkMatchesReference(t, m)
		if r := canonicalRanks(m); len(r) > 0 && r[len(r)-1] >= 10 {
			cells++
		}
	}
	if cells == 0 {
		t.Fatal("no random molecule reached rank 10")
	}
}

// Symmetric graphs keep ties through refinement, so the tie-breaking
// loop runs many rounds with ranks past 10: rings, stars and ladders.
func TestCanonicalMatchesReferenceSymmetric(t *testing.T) {
	for _, n := range []int{3, 9, 10, 11, 12, 25, 60} {
		ring := New()
		star := New()
		ladder := New()
		for i := 0; i < n; i++ {
			ring.AddAtom(Atom{Element: "S"})
			star.AddAtom(Atom{Element: "C", Hs: 3})
			ladder.AddAtom(Atom{Element: "C", Hs: 1})
			ladder.AddAtom(Atom{Element: "C", Hs: 1})
			ring.Bonds = append(ring.Bonds, Bond{A: i, B: (i + 1) % n, Order: 1})
			if i > 0 {
				star.Bonds = append(star.Bonds, Bond{A: 0, B: i, Order: 1})
				ladder.Bonds = append(ladder.Bonds,
					Bond{A: 2*i - 2, B: 2 * i, Order: 1}, Bond{A: 2*i - 1, B: 2*i + 1, Order: 2})
			}
			ladder.Bonds = append(ladder.Bonds, Bond{A: 2 * i, B: 2*i + 1, Order: 1})
		}
		for _, m := range []*Molecule{ring, star, ladder} {
			checkMatchesReference(t, m)
		}
	}
}
