package chem

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// canonicalRanks computes a canonical atom ordering with a Morgan-style
// iterative refinement: atoms start with an invariant built from local
// properties, then repeatedly absorb sorted neighbor ranks until the
// partition stabilizes; remaining ties are broken deterministically by
// artificially distinguishing one member of the first tied cell and
// re-refining (the standard canonical-labeling device). The result maps
// each atom to a dense rank; equal molecules (up to graph isomorphism over
// our invariants) receive identical rank structures.
//
// The invariants are decimal strings compared bytewise: an atom starts
// with "element|Hs|charge|class|degree|bond-order sum" and each round's
// key is "rank|order:rank,order:rank,..." over its bonds, the items in
// byte order. Ranks of 10 and above therefore sort as strings ("1:10"
// before "1:2"), and every species' canonical SMILES depends on that
// order (docs/rdl.md), so the keys are built as exactly those bytes, in
// one buffer reused across rounds.
func canonicalRanks(m *Molecule) []int {
	n := len(m.Atoms)
	if n == 0 {
		return nil
	}
	l := newLabeller(m)
	ranks, distinct := l.initial(m)
	ranks, distinct = l.refine(ranks, distinct)

	// Tie-breaking until all ranks distinct.
	count := make([]int, n)
	for distinct < n {
		// Find the first tied cell (smallest rank value with >1 member)
		// and promote its lowest-index member: shift all ranks >= r up by
		// one, give that member rank r, leave the rest of the cell at r+1.
		clear(count)
		for _, r := range ranks {
			count[r]++
		}
		r := 0
		for count[r] < 2 {
			r++
		}
		first := slices.Index(ranks, r)
		for i := range ranks {
			if ranks[i] > r || (ranks[i] == r && i != first) {
				ranks[i]++
			}
		}
		ranks, distinct = l.refine(ranks, distinct+1)
	}
	return ranks
}

// labeller holds canonicalRanks' adjacency and scratch storage; every
// refinement round reuses it.
type labeller struct {
	adjacency
	// keys holds this round's key of every atom, atom i's at
	// keys[end[i]:end[i+1]].
	keys []byte
	end  []int
	// items holds one atom's "order:rank" items, item j at
	// items[itemEnd[j]:itemEnd[j+1]], and itemOrder sorts them.
	items     []byte
	itemEnd   []int
	itemOrder []int
	// order sorts the atoms by key; next receives the new ranks.
	order []int
	next  []int
}

func newLabeller(m *Molecule) *labeller {
	n := len(m.Atoms)
	return &labeller{
		adjacency: newAdjacency(m),
		end:       make([]int, n+1),
		order:     make([]int, n),
		next:      make([]int, n),
	}
}

// initial ranks the atoms by their local invariants and returns the ranks
// and their count of distinct values.
func (l *labeller) initial(m *Molecule) ([]int, int) {
	n := len(m.Atoms)
	// Degree and bond-order sum count a bond once per atom it touches,
	// as Neighbors and BondOrderSum do.
	deg := make([]int, n)
	bos := make([]int, n)
	for _, b := range m.Bonds {
		deg[b.A]++
		bos[b.A] += b.Order
		if b.B != b.A {
			deg[b.B]++
			bos[b.B] += b.Order
		}
	}
	l.keys = l.keys[:0]
	for i, a := range m.Atoms {
		l.keys = append(l.keys, a.Element...)
		for _, v := range [...]int{a.Hs, a.Charge, a.Class, deg[i], bos[i]} {
			l.keys = append(l.keys, '|')
			l.keys = strconv.AppendInt(l.keys, int64(v), 10)
		}
		l.end[i+1] = len(l.keys)
	}
	ranks := make([]int, n)
	return ranks, l.rank(ranks)
}

// refine absorbs sorted neighbor ranks into each atom's rank until a
// round leaves the number of distinct ranks unchanged, and returns that
// round's ranks (they may renumber the cells) and their distinct count.
// It may overwrite ranks.
func (l *labeller) refine(ranks []int, distinct int) ([]int, int) {
	for {
		l.keys = l.keys[:0]
		for i := range ranks {
			l.keys = strconv.AppendInt(l.keys, int64(ranks[i]), 10)
			l.keys = append(l.keys, '|')
			l.appendNeighborItems(i, ranks)
			l.end[i+1] = len(l.keys)
		}
		next := l.next
		d := l.rank(next)
		l.next = ranks
		if d == distinct {
			return next, d
		}
		ranks, distinct = next, d
	}
}

// appendNeighborItems appends atom i's "order:rank" items to its key, in
// byte order and joined by commas.
func (l *labeller) appendNeighborItems(i int, ranks []int) {
	l.items = l.items[:0]
	l.itemEnd = append(l.itemEnd[:0], 0)
	for j := l.start[i]; j < l.start[i+1]; j++ {
		l.items = strconv.AppendInt(l.items, int64(l.ord[j]), 10)
		l.items = append(l.items, ':')
		l.items = strconv.AppendInt(l.items, int64(ranks[l.nbr[j]]), 10)
		l.itemEnd = append(l.itemEnd, len(l.items))
	}
	item := func(j int) []byte { return l.items[l.itemEnd[j]:l.itemEnd[j+1]] }
	// Insertion sort: an atom has a handful of bonds.
	l.itemOrder = l.itemOrder[:0]
	for j := 0; j < len(l.itemEnd)-1; j++ {
		k := len(l.itemOrder)
		l.itemOrder = append(l.itemOrder, j)
		for ; k > 0 && bytes.Compare(item(l.itemOrder[k-1]), item(j)) > 0; k-- {
			l.itemOrder[k] = l.itemOrder[k-1]
		}
		l.itemOrder[k] = j
	}
	for k, j := range l.itemOrder {
		if k > 0 {
			l.keys = append(l.keys, ',')
		}
		l.keys = append(l.keys, item(j)...)
	}
}

// rank writes each atom's dense rank among the distinct keys, in byte
// order, into ranks and returns the number of distinct keys.
func (l *labeller) rank(ranks []int) int {
	key := func(i int) []byte { return l.keys[l.end[i]:l.end[i+1]] }
	for i := range l.order {
		l.order[i] = i
	}
	slices.SortFunc(l.order, func(a, b int) int { return bytes.Compare(key(a), key(b)) })
	d := 0
	for k, i := range l.order {
		if k > 0 && !bytes.Equal(key(i), key(l.order[k-1])) {
			d++
		}
		ranks[i] = d
	}
	return d + 1
}

// Canonical returns the canonical SMILES of the molecule. Two molecules
// that are the same chemical species (same graph, hydrogens, charges,
// classes) produce the same string, which the reaction-network generator
// uses as species identity. Disconnected parts are each canonicalized and
// joined with '.' in sorted order.
func (m *Molecule) Canonical() string {
	comp, nc := m.components()
	switch nc {
	case 0:
		return ""
	case 1:
		// The one fragment would be a copy of m, atoms and bonds in order.
		return writeCanonicalFragment(m, canonicalRanks(m))
	}
	frags := m.split(comp, nc)
	parts := make([]string, len(frags))
	for i, f := range frags {
		parts[i] = writeCanonicalFragment(f, canonicalRanks(f))
	}
	sort.Strings(parts)
	return strings.Join(parts, ".")
}

// SMILES is an alias of Canonical; the writer always emits canonical form.
func (m *Molecule) SMILES() string { return m.Canonical() }

// writeCanonicalFragment emits one connected component as canonical
// SMILES, given its canonical ranks.
func writeCanonicalFragment(m *Molecule, ranks []int) string {
	n := len(m.Atoms)
	if n == 0 {
		return ""
	}

	// Root: the atom with the smallest canonical rank.
	root := 0
	for i := 1; i < n; i++ {
		if ranks[i] < ranks[root] {
			root = i
		}
	}

	adj := make([][]Bond, n)
	for _, b := range m.Bonds {
		adj[b.A] = append(adj[b.A], b)
		adj[b.B] = append(adj[b.B], b)
	}
	for i := range adj {
		bs := adj[i]
		sort.Slice(bs, func(x, y int) bool { return ranks[bs[x].Other(i)] < ranks[bs[y].Other(i)] })
	}

	// DFS assigning ring-closure numbers to back edges.
	visited := make([]bool, n)
	inSpanning := make(map[[2]int]bool) // edges used by the DFS tree
	type ringUse struct {
		num   int
		order int
	}
	ringAt := make(map[int][]ringUse) // atom -> ring closures to print
	nextRing := 1

	// First pass: walk the DFS to discover back edges.
	var discover func(v, parent int)
	discover = func(v, parent int) {
		visited[v] = true
		for _, b := range adj[v] {
			w := b.Other(v)
			if w == parent {
				continue
			}
			if visited[w] {
				key := edgeKey(v, w)
				if !inSpanning[key] {
					inSpanning[key] = true // mark back edge handled
					num := nextRing
					nextRing++
					ringAt[v] = append(ringAt[v], ringUse{num: num, order: b.Order})
					ringAt[w] = append(ringAt[w], ringUse{num: num, order: b.Order})
				}
				continue
			}
			inSpanning[edgeKey(v, w)] = true
			discover(w, v)
		}
	}
	discover(root, -1)

	// Second pass: emit.
	for i := range visited {
		visited[i] = false
	}
	var emit func(v, parent int, viaOrder int, sb *strings.Builder)
	emit = func(v, parent, viaOrder int, sb *strings.Builder) {
		visited[v] = true
		if viaOrder == 2 {
			sb.WriteByte('=')
		} else if viaOrder == 3 {
			sb.WriteByte('#')
		}
		sb.WriteString(atomSMILES(m, v))
		for _, r := range ringAt[v] {
			if r.order == 2 {
				sb.WriteByte('=')
			} else if r.order == 3 {
				sb.WriteByte('#')
			}
			if r.num > 9 {
				fmt.Fprintf(sb, "%%%02d", r.num)
			} else {
				fmt.Fprintf(sb, "%d", r.num)
			}
		}
		var kids []Bond
		for _, b := range adj[v] {
			w := b.Other(v)
			if w != parent && !visited[w] {
				kids = append(kids, b)
			}
		}
		for i, b := range kids {
			w := b.Other(v)
			if visited[w] {
				continue // reached via an earlier child subtree (ring)
			}
			last := true
			for _, b2 := range kids[i+1:] {
				if !visited[b2.Other(v)] {
					last = false
					break
				}
			}
			if !last {
				sb.WriteByte('(')
				emit(w, v, b.Order, sb)
				sb.WriteByte(')')
			} else {
				emit(w, v, b.Order, sb)
			}
		}
	}
	var sb strings.Builder
	emit(root, -1, 0, &sb)
	return sb.String()
}

func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// atomSMILES writes one atom, using the bare organic-subset form whenever
// the implicit-hydrogen rule would reconstruct the stored hydrogen count,
// and a bracket atom otherwise.
func atomSMILES(m *Molecule, i int) string {
	a := m.Atoms[i]
	bare := organicSubset[a.Element] &&
		a.Charge == 0 && a.Class == 0 &&
		a.Hs == implicitHs(a.Element, m.BondOrderSum(i))
	if bare {
		return string(a.Element)
	}
	var sb strings.Builder
	sb.WriteByte('[')
	sb.WriteString(string(a.Element))
	if a.Hs == 1 {
		sb.WriteByte('H')
	} else if a.Hs > 1 {
		fmt.Fprintf(&sb, "H%d", a.Hs)
	}
	if a.Charge > 0 {
		sb.WriteByte('+')
		if a.Charge > 1 {
			fmt.Fprintf(&sb, "%d", a.Charge)
		}
	} else if a.Charge < 0 {
		sb.WriteByte('-')
		if a.Charge < -1 {
			fmt.Fprintf(&sb, "%d", -a.Charge)
		}
	}
	if a.Class != 0 {
		fmt.Fprintf(&sb, ":%d", a.Class)
	}
	sb.WriteByte(']')
	return sb.String()
}
