// Package vulcan generates the benchmark reaction systems of the paper's
// evaluation: kinetic models of accelerated sulfur vulcanization of
// natural rubber (the benzothiazolesulfenamide accelerator class), with
// exactly ten distinct kinetic parameters across all test cases, as §5.1
// describes. The paper's five test cases range from 450 to 250,000
// equations; the generator is parameterized by the number of sulfur-chain
// variants per family so both scaled-down and paper-scale systems can be
// produced.
//
// The model follows the reaction classes of the rubber-vulcanization
// literature the paper builds on (Ghosh et al.):
//
//   - accelerator chemistry: sulfur ring opening and the growth of
//     polysulfidic accelerator complexes A_n;
//   - initiation and crosslinking: rubber sites R react with accelerator
//     complexes to pendant (dangling) groups D_n, which crosslink to C_n;
//   - crosslink scission at positions at least three sulfurs from the
//     chain ends (the paper's flagship context-sensitive rule);
//   - desulfuration, pendant decay, exchange with free sulfur,
//     termination and reversion.
//
// Structurally this yields the redundancy profile the optimizer targets:
// whole families share rate constants, reservoir species (rubber, free
// sulfur) multiply entire family sums, and scission fans one flux into
// many equations.
package vulcan

import (
	"fmt"

	"rms/internal/eqgen"
	"rms/internal/network"
)

// The ten distinct kinetic parameters (§5.1: "the same 10 distinct
// kinetic parameters" across all five test cases).
var rateNames = []string{
	"K_accel",  // sulfur ring opening / accelerator complex growth
	"K_cross",  // pendant -> crosslink
	"K_desulf", // crosslink desulfuration C_n -> C_{n-1} + S
	"K_exch",   // crosslink growth by free-sulfur exchange
	"K_init",   // initiation R + A_n -> D_n
	"K_mat",    // maturation A_n + R -> D_n
	"K_pend",   // pendant decay D_n -> D_{n-1} + S
	"K_rev",    // reversion C_n -> D_n
	"K_sc",     // crosslink scission
	"K_term",   // pendant-pendant termination
}

// TrueRates is the ground-truth parameter set used to synthesize
// experimental data; estimation benchmarks recover these within the
// chemist's bounds.
var TrueRates = map[string]float64{
	"K_accel": 0.9, "K_cross": 1.2, "K_desulf": 0.25, "K_exch": 0.6,
	"K_init": 0.8, "K_mat": 0.4, "K_pend": 0.2, "K_rev": 0.1,
	"K_sc": 0.3, "K_term": 0.5,
}

// RateNames returns the ten kinetic parameter names in sorted order (the
// order of the compiled k vector).
func RateNames() []string {
	return append([]string(nil), rateNames...)
}

// Case describes one of the paper's five test cases.
type Case struct {
	// Name is the paper's label ("case1".."case5").
	Name string
	// PaperEquations is the equation count Table 1 reports.
	PaperEquations int
	// PaperVariants is the family size that reproduces that count
	// (equations = 3·variants + 4).
	PaperVariants int
	// ScaledVariants is the default laptop-scale size used by the
	// benchmark harness.
	ScaledVariants int
}

// Cases lists the five test cases of Table 1.
var Cases = []Case{
	{Name: "case1", PaperEquations: 450, PaperVariants: 149, ScaledVariants: 60},
	{Name: "case2", PaperEquations: 10000, PaperVariants: 3332, ScaledVariants: 160},
	{Name: "case3", PaperEquations: 24500, PaperVariants: 8165, ScaledVariants: 400},
	{Name: "case4", PaperEquations: 125000, PaperVariants: 41665, ScaledVariants: 1000},
	{Name: "case5", PaperEquations: 250000, PaperVariants: 83332, ScaledVariants: 2000},
}

// Network builds the vulcanization reaction network with the given number
// of chain-length variants per family. Species: the zinc-complex
// activator Act, rubber sites R (a reservoir), octasulfur S8, free sulfur
// Sf, and three variant families — accelerator complexes XA_n, pendant
// groups XD_n and crosslinks XC_n for n = 1..variants — for
// 3·variants + 4 species in total.
func Network(variants int) (*network.Network, error) {
	return NetworkWithRedundancy(variants, 1)
}

// NetworkWithRedundancy scales the equivalent-site multiplicity of every
// reaction class by siteScale: each rule fires siteScale times as many
// per-site instances, all merging under the §3.1 simplification. The
// knob probes how the optimizer's op-elimination fraction depends on the
// mechanism's intrinsic redundancy — the quantity separating our
// synthetic workloads from the paper's proprietary ones (see
// EXPERIMENTS.md).
func NetworkWithRedundancy(variants, siteScale int) (*network.Network, error) {
	if variants < 8 {
		return nil, fmt.Errorf("vulcan: need at least 8 variants for the scission window, got %d", variants)
	}
	if siteScale < 1 {
		return nil, fmt.Errorf("vulcan: site multiplicity scale %d < 1", siteScale)
	}
	v := variants
	n := network.New()
	add := func(name string, init float64) {
		if _, err := n.AddSpecies(name, "", init); err != nil {
			panic(err) // names are generated and cannot collide
		}
	}
	// Reservoir species are named to sort canonically before the variant
	// families ("Act" < "R" < "S8" < "Sf" < "X*"): with rate constants
	// first and reservoirs next, the shared factors of every
	// reservoir-coupled flux form a common canonical prefix, which is what
	// the optimizer's prefix matching shares across a whole family.
	add("Act", 1) // zinc-complex activator (catalytic)
	add("R", 5)
	add("S8", 2)
	add("Sf", 0)
	a := func(i int) string { return fmt.Sprintf("XA_%d", i) }
	d := func(i int) string { return fmt.Sprintf("XD_%d", i) }
	cx := func(i int) string { return fmt.Sprintf("XC_%d", i) }
	for i := 1; i <= v; i++ {
		init := 0.0
		if i == 1 {
			init = 1.0
		}
		add(a(i), init)
		add(d(i), 0)
		add(cx(i), 0)
	}
	// The chemical compiler enumerates one reaction instance per
	// equivalent reaction site: a symmetric S-S bond can break in either
	// chain direction, rubber's isoprene unit offers three equivalent
	// allylic hydrogens, and so on. Equivalent-site instances carry the
	// same rate constant and participants, so the §3.1 equation
	// simplification later merges them into coefficients — but the raw,
	// unoptimized system (Table 1's baseline) spells every instance out,
	// exactly as Fig. 5's "K_A*A + K_A*A" does.
	react := func(name, rate string, sites int, consumed, produced []string) {
		sites *= siteScale
		for sIdx := 0; sIdx < sites; sIdx++ {
			instance := name
			if sites > 1 {
				instance = fmt.Sprintf("%s/site%d", name, sIdx+1)
			}
			if _, err := n.AddReaction(instance, rate, consumed, produced); err != nil {
				panic(err)
			}
		}
	}

	// Sulfur ring opening feeds the free-sulfur pool.
	react("ring", "K_accel", 2, []string{"S8"}, []string{"Sf", "Sf"}) // ring opens at either of two strained bonds
	for i := 1; i <= v; i++ {
		// Accelerator complex growth: A_n + Sf -> A_{n+1}.
		if i < v {
			react(fmt.Sprintf("accel[%d]", i), "K_accel", 2,
				[]string{a(i), "Sf"}, []string{a(i + 1)}) // insertion at either chain end
		}
		// Initiation and maturation: rubber + accelerator -> pendant.
		react(fmt.Sprintf("init[%d]", i), "K_init", 3, []string{"R", a(i)}, []string{d(i)}) // three equivalent allylic hydrogens
		react(fmt.Sprintf("mat[%d]", i), "K_mat", 3, []string{a(i), "R"}, []string{d(i)})
		// Crosslinking: pendant + rubber -> crosslink, catalyzed by the
		// zinc activator (consumed and regenerated, so its own equation
		// cancels under the Fig. 4->5 merge while the flux stays ternary).
		react(fmt.Sprintf("cross[%d]", i), "K_cross", 3,
			[]string{d(i), "R", "Act"}, []string{cx(i), "Act"})
		// Crosslink growth by exchange with free sulfur.
		if i < v {
			react(fmt.Sprintf("exch[%d]", i), "K_exch", 2,
				[]string{cx(i), "Sf"}, []string{cx(i + 1)}) // insertion at either chain end
		}
		// Desulfuration and pendant decay walk back down the ladder.
		if i >= 2 {
			react(fmt.Sprintf("desulf[%d]", i), "K_desulf", 2,
				[]string{cx(i)}, []string{cx(i - 1), "Sf"}) // abstraction from either end
			react(fmt.Sprintf("pend[%d]", i), "K_pend", 2,
				[]string{d(i)}, []string{d(i - 1), "Sf"})
		}
		// Reversion: a crosslink reverts to a pendant group.
		react(fmt.Sprintf("rev[%d]", i), "K_rev", 1, []string{cx(i)}, []string{d(i)})
		// Scission: break S–S bonds at least three sulfurs from either
		// chain end, at most four positions per crosslink (the
		// context-sensitive window, up to eight positions).
		for pos := 3; pos <= i-3 && pos <= 10; pos++ {
			react(fmt.Sprintf("sc[%d@%d]", i, pos), "K_sc", 2,
				[]string{cx(i)}, []string{d(pos), d(i - pos)}) // homolysis in either direction
		}
		// Termination: two equal pendants couple into a crosslink.
		if 2*i <= v {
			react(fmt.Sprintf("term[%d]", i), "K_term", 1,
				[]string{d(i), d(i)}, []string{cx(2 * i)})
		}
	}
	return n, nil
}

// System generates the ODE system for the given family size.
func System(variants int) (*eqgen.System, error) {
	n, err := Network(variants)
	if err != nil {
		return nil, err
	}
	return eqgen.FromNetwork(n), nil
}

// RateVector maps named rate values onto the compiled k vector order.
func RateVector(rates []string, vals map[string]float64) ([]float64, error) {
	k := make([]float64, len(rates))
	for i, name := range rates {
		v, ok := vals[name]
		if !ok {
			return nil, fmt.Errorf("vulcan: no value for rate constant %q", name)
		}
		k[i] = v
	}
	return k, nil
}

// CrosslinkIndices returns the y indices of the crosslink family — the
// species whose total concentration is the measured property (crosslink
// density drives rubber stiffness).
func CrosslinkIndices(sys *eqgen.System) []int {
	var out []int
	for i, name := range sys.Species {
		if len(name) > 3 && name[0] == 'X' && name[1] == 'C' && name[2] == '_' {
			out = append(out, i)
		}
	}
	return out
}

// CrosslinkProperty returns the property function: total crosslink
// concentration.
func CrosslinkProperty(sys *eqgen.System) func(y []float64) float64 {
	idx := CrosslinkIndices(sys)
	return func(y []float64) float64 {
		s := 0.0
		for _, i := range idx {
			s += y[i]
		}
		return s
	}
}

// RDLSource renders a compact vulcanization program as RDL source — the
// front-end input of the compiler, formatter and parser tests. It
// declares the rubber and the accelerator, pendant and crosslink
// families with explicit molecular structures, and one reaction:
// crosslink scission with the ≥3-from-each-end context rule. variants
// is clamped to 8..26 to keep the SMILES chains readable.
func RDLSource(variants int) string {
	if variants < 8 {
		variants = 8
	}
	if variants > 26 {
		variants = 26
	}
	return fmt.Sprintf(`# Accelerated sulfur vulcanization, compact RDL form.
# Families of polysulfidic species differing in sulfur chain length.

species Rubber                = "C=CC"                      init 5.0
species Accel{n=1..%[1]d}     = "CC(=O)" + "S"*n + "[CH2]"  init 0.0
species Pendant{n=1..%[1]d}   = "C(=C)C" + "S"*n + "[CH2]"  init 0.0
species Crosslink{n=1..%[1]d} = "C" + "S"*n + "C"           init 0.0

# Crosslink scission: break an S-S bond at least three sulfurs from
# either end of the chain.
reaction Scission {
    reactants Crosslink{n}
    require   n >= 6
    forall    i = 3 .. n-3
    disconnect 1:S[i] 1:S[i+1]
    rate K_sc
}

forbid "S"
`, variants)
}
