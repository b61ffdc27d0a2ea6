package conformance

import (
	"fmt"
	"math/rand"
	"strings"
)

// RandomRDL generates a random, valid structural RDL program — the
// source-language counterpart of RandomNetwork. RDL reactions are graph
// edits over SMILES molecules, so the generator composes randomized
// instances of the constructs the language supports (templated sulfur
// chains, chain scission with require/forall windows, disconnect +
// connect capping, reversible rates, forbid filters) rather than
// abstract mass-action systems. The result always parses, generates a
// non-empty network, and exercises the parse→format→reparse round trip
// the rdl stage checks.
func RandomRDL(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("# random conformance model\n")

	lo := 1 + rng.Intn(3)      // chain family lower bound
	hi := lo + 2 + rng.Intn(4) // upper bound, at least lo+2
	window := 1 + rng.Intn(2)  // scission forall margin
	minN := 2 * window         // require keeps the forall window non-empty
	if minN < lo {
		minN = lo
	}

	fmt.Fprintf(&b, "species Chain{n=%d..%d} = \"C\" + \"S\"*n + \"C\" init %.3f\n",
		lo, hi, 0.5+rng.Float64())
	fmt.Fprintf(&b, "species Bridge = \"C[S:1][S:2]C\" init %.3f\n", 0.5+rng.Float64())
	capping := rng.Intn(2) == 0
	if capping {
		fmt.Fprintf(&b, "species Methyl = \"[CH3:3]\" init %.3f\n", 0.5+rng.Float64())
	}

	// Chain scission: cut the sulfur chain inside a forall window.
	rateArgs := ""
	if rng.Intn(2) == 0 {
		rateArgs = "(n)"
	}
	fmt.Fprintf(&b, `reaction Scission {
    reactants Chain{n}
    require   n >= %d
    forall    i = %d .. n-%d
    disconnect 1:S[i] 1:S[i+1]
    rate K_sc%s
}
`, minN, window, window, rateArgs)

	// Bridge scission: the quickstart's labeled-site cut.
	fmt.Fprintf(&b, `reaction Cut {
    reactants Bridge
    disconnect 1:1 1:2
    rate K_cut
}
`)

	if capping {
		reverse := ""
		if rng.Intn(2) == 0 {
			reverse = " reverse K_capr"
		}
		fmt.Fprintf(&b, `reaction Cap {
    reactants Bridge, Methyl
    disconnect 1:1 1:2
    connect    1:1 2:3
    rate K_cap%s
}
`, reverse)
	}

	if rng.Intn(3) == 0 {
		b.WriteString("forbid \"S\"\n")
	}
	return b.String()
}
