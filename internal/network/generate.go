package network

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"rms/internal/chem"
	"rms/internal/rdl"
)

// Generate expands an RDL program into its reaction network: every species
// variant is instantiated, every reaction class is applied to every
// combination of matching reactants and context values, the graph edits
// are performed, and the products are canonicalized and interned (new
// species get auto names). Reaction instances whose actions are chemically
// inapplicable (no such site, valence exceeded, no hydrogen to abstract)
// are skipped — a rule only fires where it applies — while structural
// errors in the program (ambiguous sites, colliding declarations) abort
// generation.
func Generate(prog *rdl.Program) (*Network, error) {
	g := &generator{net: New(), mols: make(map[string]*chem.Molecule)}
	if err := g.declareSpecies(prog); err != nil {
		return nil, err
	}
	if err := g.forbid(prog); err != nil {
		return nil, err
	}
	for _, r := range prog.Reactions {
		if err := g.expandReaction(prog, r); err != nil {
			return nil, err
		}
	}
	// Compiler invariant: machine-applied rules must conserve heavy atoms.
	if err := g.net.CheckMassBalance(); err != nil {
		return nil, err
	}
	return g.net, nil
}

type generator struct {
	net       *Network
	mols      map[string]*chem.Molecule // concrete species name -> structure
	forbidden map[string]bool           // canonical SMILES
	instances map[string][]rdl.SpeciesInstance
}

func (g *generator) declareSpecies(prog *rdl.Program) error {
	g.instances = make(map[string][]rdl.SpeciesInstance)
	for _, d := range prog.Species {
		insts, err := d.Instances()
		if err != nil {
			return err
		}
		for _, inst := range insts {
			m, err := chem.ParseSMILES(inst.SMILES)
			if err != nil {
				return fmt.Errorf("species %s: %w", inst.Name, err)
			}
			if _, err := g.net.AddSpecies(inst.Name, m.Canonical(), inst.Init); err != nil {
				return err
			}
			g.mols[inst.Name] = m
		}
		g.instances[d.Name] = insts
	}
	return nil
}

func (g *generator) forbid(prog *rdl.Program) error {
	g.forbidden = make(map[string]bool)
	for _, f := range prog.Forbids {
		m, err := chem.ParseSMILES(f)
		if err != nil {
			return fmt.Errorf("forbid %q: %w", f, err)
		}
		g.forbidden[m.Canonical()] = true
	}
	return nil
}

func (g *generator) expandReaction(prog *rdl.Program, r *rdl.ReactionDecl) error {
	lists := make([][]rdl.SpeciesInstance, len(r.Reactants))
	for i, ref := range r.Reactants {
		insts := g.instances[ref.Species]
		if len(insts) == 0 {
			return fmt.Errorf("network: reaction %s: species %q has no instances",
				r.Name, ref.Species)
		}
		lists[i] = insts
	}
	combo := make([]rdl.SpeciesInstance, len(lists))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(lists) {
			return g.expandContext(r, combo)
		}
		for _, inst := range lists[i] {
			combo[i] = inst
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// expandContext enumerates forall ranges and fires one reaction instance
// per satisfying environment.
func (g *generator) expandContext(r *rdl.ReactionDecl, combo []rdl.SpeciesInstance) error {
	env := make(map[string]int)
	for i, ref := range r.Reactants {
		if ref.Var != "" {
			env[ref.Var] = combo[i].VarValue
		}
	}
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(r.Foralls) {
			ok, err := g.checkRequires(r, env)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			return g.fire(r, combo, env)
		}
		f := r.Foralls[i]
		lo, err := f.Lo.Eval(env)
		if err != nil {
			return fmt.Errorf("reaction %s: %w", r.Name, err)
		}
		hi, err := f.Hi.Eval(env)
		if err != nil {
			return fmt.Errorf("reaction %s: %w", r.Name, err)
		}
		for v := lo; v <= hi; v++ {
			env[f.Var] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(env, f.Var)
		return nil
	}
	return rec(0)
}

func (g *generator) checkRequires(r *rdl.ReactionDecl, env map[string]int) (bool, error) {
	for _, c := range r.Requires {
		ok, err := c.Eval(env)
		if err != nil {
			return false, fmt.Errorf("reaction %s: %w", r.Name, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// errSkip marks a reaction instance that does not apply chemically.
type errSkip struct{ reason string }

func (e errSkip) Error() string { return e.reason }

// fire applies the reaction's actions to one concrete combination and
// records the resulting reaction instance.
func (g *generator) fire(r *rdl.ReactionDecl, combo []rdl.SpeciesInstance, env map[string]int) error {
	// Build the combined working molecule with per-reactant offsets.
	offsets := make([]int, len(combo))
	var work *chem.Molecule
	ranges := make([][2]int, len(combo))
	for i, inst := range combo {
		m := g.mols[inst.Name]
		if i == 0 {
			work = m.Clone()
			offsets[0] = 0
		} else {
			offsets[i] = work.Combine(m)
		}
		ranges[i] = [2]int{offsets[i], offsets[i] + len(m.Atoms)}
	}
	for _, act := range r.Actions {
		if err := g.apply(work, r, act, ranges, env); err != nil {
			var skip errSkip
			if errors.As(err, &skip) {
				return nil
			}
			return err
		}
	}
	// Collect and intern products.
	var produced []string
	for _, frag := range work.Fragments() {
		c := frag.Canonical()
		if g.forbidden[c] {
			return nil
		}
		sp, err := g.net.InternSMILES(c)
		if err != nil {
			return err
		}
		produced = append(produced, sp.Name)
	}
	sort.Strings(produced)
	consumed := make([]string, len(combo))
	for i, inst := range combo {
		consumed[i] = inst.Name
	}
	name := instanceName(r, env)
	rate := rateName(r.Rate, env)
	if _, err := g.net.AddReaction(name, rate, consumed, produced); err != nil {
		return err
	}
	// A reverse clause adds the microscopic reverse reaction: products
	// become reactants under the reverse rate constant. The graph edits
	// need no inversion — the species on both sides are already known.
	if r.Reverse.Name != "" {
		revRate := rateName(r.Reverse, env)
		if _, err := g.net.AddReaction(name+"/rev", revRate, produced, consumed); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) apply(work *chem.Molecule, r *rdl.ReactionDecl, act rdl.Action,
	ranges [][2]int, env map[string]int) error {
	a, err := g.resolveSite(work, r, act.A, ranges, env)
	if err != nil {
		return err
	}
	var b int
	if act.Kind != rdl.ActRemoveH && act.Kind != rdl.ActAddH {
		b, err = g.resolveSite(work, r, act.B, ranges, env)
		if err != nil {
			return err
		}
	}
	var opErr error
	switch act.Kind {
	case rdl.ActDisconnect:
		opErr = work.Disconnect(a, b)
	case rdl.ActConnect:
		opErr = work.Connect(a, b, act.Order)
	case rdl.ActIncrease:
		opErr = work.IncreaseBondOrder(a, b)
	case rdl.ActDecrease:
		opErr = work.DecreaseBondOrder(a, b)
	case rdl.ActRemoveH:
		opErr = work.RemoveHydrogen(a)
	case rdl.ActAddH:
		opErr = work.AddHydrogen(a)
	}
	if opErr != nil {
		// Chemically inapplicable here: the rule does not fire.
		return errSkip{reason: opErr.Error()}
	}
	return nil
}

// resolveSite maps a Site to an atom index in the combined molecule.
// Missing sites skip the instance; ambiguous class labels are programming
// errors and abort generation.
func (g *generator) resolveSite(work *chem.Molecule, r *rdl.ReactionDecl, s rdl.Site,
	ranges [][2]int, env map[string]int) (int, error) {
	lo, hi := ranges[s.Reactant-1][0], ranges[s.Reactant-1][1]
	if s.ChainIdx != nil {
		idx, err := s.ChainIdx.Eval(env)
		if err != nil {
			return 0, fmt.Errorf("reaction %s: %w", r.Name, err)
		}
		chain, err := sulfurChain(work, lo, hi)
		if err != nil {
			return 0, fmt.Errorf("reaction %s: %w", r.Name, err)
		}
		if idx < 1 || idx > len(chain) {
			return 0, errSkip{reason: fmt.Sprintf("chain index %d outside 1..%d", idx, len(chain))}
		}
		return chain[idx-1], nil
	}
	var found []int
	for i := lo; i < hi; i++ {
		if work.Atoms[i].Class == s.Class {
			found = append(found, i)
		}
	}
	switch len(found) {
	case 0:
		return 0, errSkip{reason: fmt.Sprintf("no atom with class %d", s.Class)}
	case 1:
		return found[0], nil
	default:
		return 0, fmt.Errorf("reaction %s: class %d is ambiguous (%d atoms) in reactant %d",
			r.Name, s.Class, len(found), s.Reactant)
	}
}

// sulfurChain returns the atom indices of the unique maximal chain of
// sulfur atoms within [lo,hi), ordered from the endpoint with the smaller
// atom index. Branched or multiple sulfur chains are ambiguous.
func sulfurChain(m *chem.Molecule, lo, hi int) ([]int, error) {
	inRange := func(i int) bool { return i >= lo && i < hi }
	sNeighbors := make(map[int][]int)
	var sulfurs []int
	for i := lo; i < hi; i++ {
		if m.Atoms[i].Element != "S" {
			continue
		}
		sulfurs = append(sulfurs, i)
		for _, nb := range m.Neighbors(i) {
			if inRange(nb) && m.Atoms[nb].Element == "S" {
				sNeighbors[i] = append(sNeighbors[i], nb)
			}
		}
	}
	if len(sulfurs) == 0 {
		return nil, errSkip{reason: "no sulfur chain"}
	}
	var ends []int
	for _, s := range sulfurs {
		switch len(sNeighbors[s]) {
		case 0, 1:
			if len(sulfurs) == 1 || len(sNeighbors[s]) == 1 {
				ends = append(ends, s)
			}
		case 2:
			// interior
		default:
			return nil, fmt.Errorf("branched sulfur chain at atom %d", s)
		}
	}
	if len(sulfurs) == 1 {
		return sulfurs, nil
	}
	if len(ends) != 2 {
		return nil, fmt.Errorf("sulfur atoms form %d chain ends, want 2 (multiple chains?)", len(ends))
	}
	start := ends[0]
	if ends[1] < start {
		start = ends[1]
	}
	chain := []int{start}
	prev, cur := -1, start
	for {
		next := -1
		for _, nb := range sNeighbors[cur] {
			if nb != prev {
				next = nb
				break
			}
		}
		if next < 0 {
			break
		}
		chain = append(chain, next)
		prev, cur = cur, next
	}
	if len(chain) != len(sulfurs) {
		return nil, fmt.Errorf("sulfur atoms form multiple disjoint chains")
	}
	return chain, nil
}

// instanceName renders "Name[a=1,b=2]" with variables in sorted order.
// The name is one whitespace-free token, as network text requires, and the
// comma sorts below every digit, so "R[i=3,n=6]" sorts before "R[i=30,n=6]".
func instanceName(r *rdl.ReactionDecl, env map[string]int) string {
	if len(env) == 0 {
		return r.Name
	}
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, env[k])
	}
	return fmt.Sprintf("%s[%s]", r.Name, strings.Join(parts, ","))
}

// rateName instantiates a rate spec: "K_sc" with args (n) and n=6 becomes
// "K_sc_6".
func rateName(spec rdl.RateSpec, env map[string]int) string {
	name := spec.Name
	for _, a := range spec.Args {
		name = fmt.Sprintf("%s_%d", name, env[a])
	}
	return name
}
