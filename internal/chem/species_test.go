package chem_test

import (
	"math/rand"
	"testing"

	"rms/internal/chem"
	"rms/internal/conformance"
	"rms/internal/network"
	"rms/internal/rdl"
	"rms/internal/vulcan"
)

// Every species of the vulcanization RDL models and of seeded random
// conformance programs labels exactly as the reference does, as parsed
// from its SMILES and under seeded permutations of its atoms.
func TestCanonicalMatchesReferenceRDLSpecies(t *testing.T) {
	var srcs []string
	for _, v := range []int{8, 10, 12, 14, 20, 26} {
		srcs = append(srcs, vulcan.RDLSource(v))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		srcs = append(srcs, conformance.RandomRDL(rng))
	}
	species := 0
	for _, src := range srcs {
		prog, err := rdl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		net, err := network.Generate(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range net.Species {
			m, err := chem.ParseSMILES(sp.SMILES)
			if err != nil {
				t.Fatalf("%s: %v", sp.Name, err)
			}
			chem.CheckMatchesReference(t, m)
			for p := 0; p < 3; p++ {
				chem.CheckMatchesReference(t, permuted(m, rng.Perm(len(m.Atoms))))
			}
			species++
		}
	}
	if species < 100 {
		t.Fatalf("only %d species checked", species)
	}
}

// permuted returns m with atom i moved to position perm[i] and its bonds
// listed in reverse.
func permuted(m *chem.Molecule, perm []int) *chem.Molecule {
	p := &chem.Molecule{Atoms: make([]chem.Atom, len(m.Atoms))}
	for i, a := range m.Atoms {
		p.Atoms[perm[i]] = a
	}
	for i := len(m.Bonds) - 1; i >= 0; i-- {
		b := m.Bonds[i]
		p.Bonds = append(p.Bonds, chem.Bond{A: perm[b.B], B: perm[b.A], Order: b.Order})
	}
	return p
}
