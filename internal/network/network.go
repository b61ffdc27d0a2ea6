// Package network holds the reaction network — the chemical compiler's
// intermediate representation (the paper's Fig. 3) — and the generator
// that expands RDL reaction classes into it.
//
// A network is a list of concrete species and a list of concrete
// reactions; each reaction names the molecules it consumes and produces
// and the kinetic rate constant governing it. The equation generator
// (package eqgen) turns a network into ODEs.
package network

import (
	"fmt"
	"sort"
	"strings"

	"rms/internal/expr"
	"rms/internal/rdl"
)

// Species is one concrete molecule participating in the network.
type Species struct {
	// Name is the concrete species name ("Crosslink_3", "Accel", "X7").
	Name string
	// SMILES is the canonical structure; empty for abstract species added
	// directly (the large-scale benchmark generators skip structures).
	SMILES string
	// Init is the initial concentration.
	Init float64
	// Index is the species' position in the network's species list; the
	// code generator maps it to y[Index].
	Index int
	// Auto marks species discovered as reaction products rather than
	// declared in the source program.
	Auto bool
}

// Reaction is one concrete reaction instance.
type Reaction struct {
	// Name identifies the instance, e.g. "Scission[i=3,n=6]".
	Name string
	// Rate is the kinetic rate constant's name.
	Rate string
	// Consumed and Produced list species names with multiplicity
	// (a species appearing twice is consumed/produced twice).
	Consumed []string
	Produced []string
}

// String renders the reaction in the paper's intermediate-equation form:
// "-A + B + B [K_A];".
func (r *Reaction) String() string {
	var parts []string
	for _, c := range r.Consumed {
		parts = append(parts, "-"+c)
	}
	for _, p := range r.Produced {
		parts = append(parts, "+"+p)
	}
	return fmt.Sprintf("%s [%s];", strings.Join(parts, " "), r.Rate)
}

// Network is the full reaction network.
type Network struct {
	Species   []*Species
	Reactions []*Reaction
	byName    map[string]*Species
	bySMILES  map[string]*Species
	autoSeq   int
}

// New returns an empty network.
func New() *Network {
	return &Network{
		byName:   make(map[string]*Species),
		bySMILES: make(map[string]*Species),
	}
}

// AddSpecies registers a species. The SMILES may be empty for abstract
// species. It is an error to register a name that is not an identifier
// or that follows the rate-constant convention (expr.IsRateConstant), a
// duplicate name, or a duplicate structure under a different name.
func (n *Network) AddSpecies(name, smiles string, init float64) (*Species, error) {
	if err := checkName(name, false); err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	if _, dup := n.byName[name]; dup {
		return nil, fmt.Errorf("network: duplicate species name %q", name)
	}
	if smiles != "" {
		if prev, dup := n.bySMILES[smiles]; dup {
			return nil, fmt.Errorf("network: species %q and %q share structure %q",
				prev.Name, name, smiles)
		}
	}
	s := &Species{Name: name, SMILES: smiles, Init: init, Index: len(n.Species)}
	n.Species = append(n.Species, s)
	n.byName[name] = s
	if smiles != "" {
		n.bySMILES[smiles] = s
	}
	return s, nil
}

// SpeciesByName returns the named species, or nil.
func (n *Network) SpeciesByName(name string) *Species { return n.byName[name] }

// SpeciesBySMILES returns the species with the given canonical structure,
// or nil.
func (n *Network) SpeciesBySMILES(smiles string) *Species { return n.bySMILES[smiles] }

// InternSMILES returns the species with the given canonical structure,
// creating an auto-named one ("X1", "X2", ...) if none exists.
func (n *Network) InternSMILES(smiles string) (*Species, error) {
	if s := n.bySMILES[smiles]; s != nil {
		return s, nil
	}
	for {
		n.autoSeq++
		name := fmt.Sprintf("X%d", n.autoSeq)
		if _, taken := n.byName[name]; taken {
			continue
		}
		s, err := n.AddSpecies(name, smiles, 0)
		if err != nil {
			return nil, err
		}
		s.Auto = true
		return s, nil
	}
}

// AddReaction appends a reaction instance. All participating species must
// already be registered, and the rate name must be an identifier that
// follows the rate-constant convention (expr.IsRateConstant).
func (n *Network) AddReaction(name, rate string, consumed, produced []string) (*Reaction, error) {
	if err := checkName(rate, true); err != nil {
		return nil, fmt.Errorf("network: reaction %q: %w", name, err)
	}
	for _, lists := range [][]string{consumed, produced} {
		for _, s := range lists {
			if n.byName[s] == nil {
				return nil, fmt.Errorf("network: reaction %q references unknown species %q", name, s)
			}
		}
	}
	if len(consumed) == 0 {
		return nil, fmt.Errorf("network: reaction %q consumes nothing", name)
	}
	r := &Reaction{
		Name:     name,
		Rate:     rate,
		Consumed: append([]string(nil), consumed...),
		Produced: append([]string(nil), produced...),
	}
	n.Reactions = append(n.Reactions, r)
	return r, nil
}

// RateNames returns the distinct kinetic rate-constant names, sorted.
func (n *Network) RateNames() []string {
	seen := make(map[string]bool)
	var names []string
	for _, r := range n.Reactions {
		if !seen[r.Rate] {
			seen[r.Rate] = true
			names = append(names, r.Rate)
		}
	}
	sort.Strings(names)
	return names
}

// InitialConcentrations returns the y0 vector indexed by species Index.
func (n *Network) InitialConcentrations() []float64 {
	y0 := make([]float64, len(n.Species))
	for _, s := range n.Species {
		y0[s.Index] = s.Init
	}
	return y0
}

// Dump renders the whole network in the paper's Fig. 3 style, one
// intermediate equation per line.
func (n *Network) Dump() string {
	var sb strings.Builder
	for i, r := range n.Reactions {
		fmt.Fprintf(&sb, "%d. %s\n", i+1, r)
	}
	return sb.String()
}

// DOT renders the network as a Graphviz digraph: species are ellipses,
// reactions are small boxes labeled with their rate constant, consumed
// species point into the reaction box and produced species out of it —
// the visualization chemists inspect when validating a generated
// mechanism.
func (n *Network) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph reactions {\n    rankdir=LR;\n")
	for _, s := range n.Species {
		shape := "ellipse"
		if s.Auto {
			shape = "diamond"
		}
		fmt.Fprintf(&sb, "    %q [shape=%s];\n", s.Name, shape)
	}
	for i, r := range n.Reactions {
		node := fmt.Sprintf("rxn%d", i)
		fmt.Fprintf(&sb, "    %s [shape=box, label=%q];\n", node, r.Rate)
		for _, c := range r.Consumed {
			fmt.Fprintf(&sb, "    %q -> %s;\n", c, node)
		}
		for _, p := range r.Produced {
			fmt.Fprintf(&sb, "    %s -> %q;\n", node, p)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// checkName holds a species or rate-constant name to the RDL front end's
// rules, which the symbolic layers rely on: a product is keyed by its
// factor names joined with '*', and a factor is a rate constant exactly
// when expr.IsRateConstant says so. Without them a species "A*B" would
// merge with the product A·B, and a species "k1" would pass for the rate
// constant k1.
func checkName(name string, rate bool) error {
	switch {
	case !rdl.IsIdentifier(name):
		return fmt.Errorf("name %q is not an identifier (a letter or '_', then letters, digits or '_')", name)
	case rate && !expr.IsRateConstant(name):
		return fmt.Errorf("rate constant %q must start with 'K' or 'k' followed by '_' or a digit", name)
	case !rate && expr.IsRateConstant(name):
		return fmt.Errorf("species %q uses the rate-constant naming convention (K/k prefix)", name)
	}
	return nil
}
