package chem

import (
	"testing"
)

// smilesFuzzSeeds seed both SMILES fuzzers.
var smilesFuzzSeeds = []string{
	// The structures the RDL examples and vulcanization model use.
	"C[S:1][S:2]C",
	"[CH3:3]",
	"CC(=O)SSS[CH2]",
	"C(=C)CS[CH2]",
	"C=CC",
	// Rings, branches, disconnected components, charges, ring-bond
	// percent escapes.
	"C1CC1C(=O)S",
	"CC(C)(C)C(=O)O",
	"C.CCS",
	"[S@@H2+2:99]",
	"C%10CCCC%10",
	// Degenerate and malformed fragments.
	"",
	"C(C",
	"C1CC2",
	"%%[[::]]..",
}

// FuzzParseSMILES throws arbitrary byte strings at the SMILES front
// end. Parse must return a molecule or an error, never panic; and any
// accepted structure must have a stable canonical form — Canonical()
// output reparses, and canonicalizing the reparse is a fixpoint (the
// property TestCanonicalRoundTrip checks on the curated corpus,
// extended here to fuzzer-found inputs).
func FuzzParseSMILES(f *testing.F) {
	for _, s := range smilesFuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseSMILES(src)
		if err != nil {
			return
		}
		canon := m.Canonical()
		m2, err := ParseSMILES(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\noriginal: %q\ncanonical: %q", err, src, canon)
		}
		if again := m2.Canonical(); again != canon {
			t.Fatalf("canonicalization not a fixpoint:\noriginal:  %q\nfirst:  %q\nsecond: %q",
				src, canon, again)
		}
	})
}

// FuzzCanonicalMatchesReference holds the canonical labelling to the
// reference implementation kept in canon_test.go on every structure the
// SMILES reader accepts: the same ranks, fragments and canonical SMILES.
func FuzzCanonicalMatchesReference(f *testing.F) {
	for _, s := range smilesFuzzSeeds {
		f.Add(s)
	}
	// Long symmetric chains and rings, whose ranks pass 10.
	f.Add("CC(=O)SSSSSSSSSSSS[CH2]")
	f.Add("C1SSSSSSSSSSSSSSSSSSSS1")
	f.Add("C(C)(C)(C)C.C(C)(C)(C)C.[S:12]=[S:12]")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseSMILES(src)
		if err != nil {
			return
		}
		checkMatchesReference(t, m)
	})
}
