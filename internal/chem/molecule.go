package chem

import (
	"errors"
	"fmt"
	"sort"
)

// Bond is an undirected edge between two atoms with an integer bond order
// (1 = single, 2 = double, 3 = triple).
type Bond struct {
	A, B  int
	Order int
}

// Other returns the endpoint of b that is not atom i.
func (b Bond) Other(i int) int {
	if b.A == i {
		return b.B
	}
	return b.A
}

// Molecule is a connected or disconnected molecular graph. The reaction
// engine treats each connected component as one species; Fragments splits
// them apart after bond-breaking edits.
type Molecule struct {
	Atoms []Atom
	Bonds []Bond
}

// New returns an empty molecule.
func New() *Molecule { return &Molecule{} }

// AddAtom appends an atom and returns its index.
func (m *Molecule) AddAtom(a Atom) int {
	m.Atoms = append(m.Atoms, a)
	return len(m.Atoms) - 1
}

// Clone returns a deep copy of the molecule.
func (m *Molecule) Clone() *Molecule {
	c := &Molecule{
		Atoms: make([]Atom, len(m.Atoms)),
		Bonds: make([]Bond, len(m.Bonds)),
	}
	copy(c.Atoms, m.Atoms)
	copy(c.Bonds, m.Bonds)
	return c
}

// bondIndex returns the index of the bond joining atoms i and j, or -1.
func (m *Molecule) bondIndex(i, j int) int {
	for k, b := range m.Bonds {
		if (b.A == i && b.B == j) || (b.A == j && b.B == i) {
			return k
		}
	}
	return -1
}

// BondBetween returns the bond joining atoms i and j.
func (m *Molecule) BondBetween(i, j int) (Bond, bool) {
	if k := m.bondIndex(i, j); k >= 0 {
		return m.Bonds[k], true
	}
	return Bond{}, false
}

// Neighbors returns the indices of atoms bonded to atom i, ascending.
func (m *Molecule) Neighbors(i int) []int {
	var ns []int
	for _, b := range m.Bonds {
		if b.A == i {
			ns = append(ns, b.B)
		} else if b.B == i {
			ns = append(ns, b.A)
		}
	}
	sort.Ints(ns)
	return ns
}

// BondOrderSum returns the total bond order at atom i (excluding implicit
// hydrogens).
func (m *Molecule) BondOrderSum(i int) int {
	s := 0
	for _, b := range m.Bonds {
		if b.A == i || b.B == i {
			s += b.Order
		}
	}
	return s
}

// FreeValence returns the radical electron count at atom i.
func (m *Molecule) FreeValence(i int) int {
	return m.Atoms[i].freeValence(m.BondOrderSum(i))
}

// IsRadical reports whether any atom has free valence.
func (m *Molecule) IsRadical() bool {
	for i := range m.Atoms {
		if m.FreeValence(i) > 0 {
			return true
		}
	}
	return false
}

// checkAtom validates an atom index.
func (m *Molecule) checkAtom(i int) error {
	if i < 0 || i >= len(m.Atoms) {
		return fmt.Errorf("chem: atom index %d out of range [0,%d)", i, len(m.Atoms))
	}
	return nil
}

// ErrWouldExceedValence is returned by edits that would push an atom past
// its maximum standard valence.
var ErrWouldExceedValence = errors.New("chem: edit would exceed maximum valence")

// maxValence returns the largest standard valence for the element,
// or a permissive default for unknown elements.
func maxValence(e Element) int {
	vals, ok := defaultValences[e]
	if !ok {
		return 8
	}
	return vals[len(vals)-1]
}

// Connect adds a bond of the given order between atoms i and j — RDL rule
// "connect two atoms". Each endpoint must have enough free valence; the
// edit consumes radical electrons first and never displaces hydrogens
// implicitly (use RemoveHydrogen for that).
func (m *Molecule) Connect(i, j, order int) error {
	if err := m.checkAtom(i); err != nil {
		return err
	}
	if err := m.checkAtom(j); err != nil {
		return err
	}
	if i == j {
		return fmt.Errorf("chem: cannot bond atom %d to itself", i)
	}
	if m.bondIndex(i, j) >= 0 {
		return fmt.Errorf("chem: atoms %d and %d already bonded (use IncreaseBondOrder)", i, j)
	}
	if order < 1 || order > 3 {
		return fmt.Errorf("chem: invalid bond order %d", order)
	}
	for _, a := range []int{i, j} {
		if m.BondOrderSum(a)+m.Atoms[a].Hs+order > maxValence(m.Atoms[a].Element) {
			return fmt.Errorf("%w: atom %d (%s)", ErrWouldExceedValence, a, m.Atoms[a].Element)
		}
	}
	m.Bonds = append(m.Bonds, Bond{A: i, B: j, Order: order})
	return nil
}

// Disconnect removes the bond between atoms i and j — RDL rule "disconnect
// two atoms". The electrons return to the endpoints as free valence
// (homolytic cleavage, the dominant mode in thermal vulcanization
// chemistry), so both fragments become radicals unless hydrogens are added
// afterwards.
func (m *Molecule) Disconnect(i, j int) error {
	k := m.bondIndex(i, j)
	if k < 0 {
		return fmt.Errorf("chem: no bond between atoms %d and %d", i, j)
	}
	m.Bonds = append(m.Bonds[:k], m.Bonds[k+1:]...)
	return nil
}

// IncreaseBondOrder raises the bond order between i and j by one — RDL rule
// "increase the bond order between two atoms".
func (m *Molecule) IncreaseBondOrder(i, j int) error {
	k := m.bondIndex(i, j)
	if k < 0 {
		return fmt.Errorf("chem: no bond between atoms %d and %d", i, j)
	}
	if m.Bonds[k].Order >= 3 {
		return fmt.Errorf("chem: bond %d-%d already at maximum order", i, j)
	}
	for _, a := range []int{i, j} {
		if m.BondOrderSum(a)+m.Atoms[a].Hs+1 > maxValence(m.Atoms[a].Element) {
			return fmt.Errorf("%w: atom %d (%s)", ErrWouldExceedValence, a, m.Atoms[a].Element)
		}
	}
	m.Bonds[k].Order++
	return nil
}

// DecreaseBondOrder lowers the bond order between i and j by one — RDL rule
// "decrease the bond order between two atoms". Lowering a single bond
// removes it entirely (equivalent to Disconnect).
func (m *Molecule) DecreaseBondOrder(i, j int) error {
	k := m.bondIndex(i, j)
	if k < 0 {
		return fmt.Errorf("chem: no bond between atoms %d and %d", i, j)
	}
	if m.Bonds[k].Order == 1 {
		m.Bonds = append(m.Bonds[:k], m.Bonds[k+1:]...)
		return nil
	}
	m.Bonds[k].Order--
	return nil
}

// RemoveHydrogen abstracts one hydrogen from atom i — RDL rule "remove a
// hydrogen atom" — leaving a radical site.
func (m *Molecule) RemoveHydrogen(i int) error {
	if err := m.checkAtom(i); err != nil {
		return err
	}
	if m.Atoms[i].Hs == 0 {
		return fmt.Errorf("chem: atom %d (%s) has no hydrogens to remove", i, m.Atoms[i].Element)
	}
	m.Atoms[i].Hs--
	return nil
}

// AddHydrogen caps free valence on atom i with one hydrogen — RDL rule
// "add hydrogen atoms".
func (m *Molecule) AddHydrogen(i int) error {
	if err := m.checkAtom(i); err != nil {
		return err
	}
	if m.BondOrderSum(i)+m.Atoms[i].Hs+1 > maxValence(m.Atoms[i].Element) {
		return fmt.Errorf("%w: atom %d (%s)", ErrWouldExceedValence, i, m.Atoms[i].Element)
	}
	m.Atoms[i].Hs++
	return nil
}

// Combine merges other into m as a disconnected part and returns the index
// offset applied to other's atoms (callers use it to address the merged
// atoms, typically to Connect across the former boundary).
func (m *Molecule) Combine(other *Molecule) int {
	off := len(m.Atoms)
	m.Atoms = append(m.Atoms, other.Atoms...)
	for _, b := range other.Bonds {
		m.Bonds = append(m.Bonds, Bond{A: b.A + off, B: b.B + off, Order: b.Order})
	}
	return off
}

// Fragments splits the molecule into its connected components, each a
// standalone molecule. Atom order within each fragment follows the original
// indices, so edits remain deterministic.
func (m *Molecule) Fragments() []*Molecule {
	comp, nc := m.components()
	return m.split(comp, nc)
}

// components labels every atom with its connected component and returns
// the labels and the component count. Components are numbered in the
// order of their lowest atom index.
func (m *Molecule) components() ([]int, int) {
	n := len(m.Atoms)
	if n == 0 {
		return nil, 0
	}
	adj := newAdjacency(m)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int, 0, n)
	nc := 0
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		// Flood the component from its lowest atom.
		comp[i] = nc
		queue = append(queue[:0], i)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range adj.neighbors(v) {
				if comp[w] < 0 {
					comp[w] = nc
					queue = append(queue, w)
				}
			}
		}
		nc++
	}
	return comp, nc
}

// split copies each component of m into its own molecule.
func (m *Molecule) split(comp []int, nc int) []*Molecule {
	if nc == 0 {
		return nil
	}
	frags := make([]*Molecule, nc)
	remap := make([]int, len(m.Atoms))
	for c := 0; c < nc; c++ {
		frags[c] = New()
	}
	for i, c := range comp {
		remap[i] = frags[c].AddAtom(m.Atoms[i])
	}
	for _, b := range m.Bonds {
		f := frags[comp[b.A]]
		f.Bonds = append(f.Bonds, Bond{A: remap[b.A], B: remap[b.B], Order: b.Order})
	}
	return frags
}

// adjacency lists every atom's bonds, built in one pass over Bonds: atom
// i's bonds lead to nbr[start[i]:start[i+1]], with orders
// ord[start[i]:start[i+1]], in bond order. A bond from an atom to itself
// is listed twice, once per endpoint.
type adjacency struct {
	start    []int
	nbr, ord []int
}

func newAdjacency(m *Molecule) adjacency {
	n := len(m.Atoms)
	a := adjacency{
		start: make([]int, n+1),
		nbr:   make([]int, 2*len(m.Bonds)),
		ord:   make([]int, 2*len(m.Bonds)),
	}
	for _, b := range m.Bonds {
		a.start[b.A+1]++
		a.start[b.B+1]++
	}
	for i := 0; i < n; i++ {
		a.start[i+1] += a.start[i]
	}
	fill := make([]int, n)
	copy(fill, a.start[:n])
	for _, b := range m.Bonds {
		a.nbr[fill[b.A]], a.ord[fill[b.A]] = b.B, b.Order
		fill[b.A]++
		a.nbr[fill[b.B]], a.ord[fill[b.B]] = b.A, b.Order
		fill[b.B]++
	}
	return a
}

// neighbors returns the atoms bonded to atom i, in bond order.
func (a adjacency) neighbors(i int) []int { return a.nbr[a.start[i]:a.start[i+1]] }

// CountElement returns the number of atoms of element e (implicit
// hydrogens are counted when e is "H").
func (m *Molecule) CountElement(e Element) int {
	n := 0
	for _, a := range m.Atoms {
		if a.Element == e {
			n++
		}
		if e == "H" {
			n += a.Hs
		}
	}
	return n
}

// Formula returns the Hill-order molecular formula (C first, then H, then
// other elements alphabetically), e.g. "C4H8S2".
func (m *Molecule) Formula() string {
	counts := make(map[Element]int)
	h := 0
	for _, a := range m.Atoms {
		counts[a.Element]++
		h += a.Hs
	}
	h += counts["H"]
	delete(counts, "H")
	var keys []string
	for e := range counts {
		if e != "C" {
			keys = append(keys, string(e))
		}
	}
	sort.Strings(keys)
	out := ""
	emit := func(sym string, n int) string {
		if n == 0 {
			return ""
		}
		if n == 1 {
			return sym
		}
		return fmt.Sprintf("%s%d", sym, n)
	}
	out += emit("C", counts["C"])
	out += emit("H", h)
	for _, k := range keys {
		out += emit(k, counts[Element(k)])
	}
	return out
}

// FindClass returns the indices of atoms carrying the given class label,
// ascending. RDL rules use classes to address reaction sites.
func (m *Molecule) FindClass(class int) []int {
	var out []int
	for i, a := range m.Atoms {
		if a.Class == class {
			out = append(out, i)
		}
	}
	return out
}
