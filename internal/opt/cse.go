package opt

import (
	"fmt"
	"slices"

	"rms/internal/expr"
)

// CSEConfig controls the common-subexpression pass.
type CSEConfig struct {
	// Products extends matching from sums (the paper's Fig. 7 operates on
	// sum subexpressions) to product factor lists as well, catching the
	// Fig. 5-style K_C*C*D flux shared across three equations. Off, the
	// pass is exactly the paper's.
	Products bool
}

// TempDef is one emitted temporary: temp[ID] = Body.
type TempDef struct {
	ID   int
	Body expr.Node
}

// CSEResult is the outcome of the pass: ordered temporary definitions
// (each temp is defined before any use, shorter subexpressions first) and
// the rewritten right-hand sides.
type CSEResult struct {
	Temps []TempDef
	RHS   []expr.Node
}

// CSE performs the domain-specific common-subexpression elimination of
// Fig. 7 over the factored right-hand sides of all equations at once.
// Subexpressions are indexed by their width (number of canonical terms);
// equal subexpressions anywhere in the system share one temporary, and a
// shorter subexpression equal to a prefix of a longer one (terms are in
// canonical lexicographic order, so prefix matching is sound) replaces
// that prefix with its temporary:
//
//	temp[0] = A + B + C
//	temp[1] = temp[0] + D
//	dA/dt = ... temp[1]*k1*E ...
//
// The inputs are not modified; rewritten trees are returned.
func CSE(rhs []expr.Node, cfg CSEConfig) *CSEResult {
	c := collectCSE(rhs, cfg)
	c.match(c.prefix)
	return c.result(rhs)
}

// collectCSE registers every composite subexpression of the right-hand
// sides.
func collectCSE(rhs []expr.Node, cfg CSEConfig) *csePass {
	composites := 0
	for _, r := range rhs {
		expr.Walk(r, func(n expr.Node) {
			if nodeKind(n) != 0 {
				composites++
			}
		})
	}
	c := &csePass{
		cfg:    cfg,
		cons:   &conser{},
		byNode: make(map[expr.Node]*cseEntry, composites),
	}
	for _, r := range rhs {
		c.collect(r)
	}
	return c
}

// result orders the temporaries and rewrites the right-hand sides.
func (c *csePass) result(rhs []expr.Node) *CSEResult {
	c.assignTemps()
	res := &CSEResult{RHS: make([]expr.Node, len(rhs))}
	for _, e := range c.order {
		res.Temps = append(res.Temps, TempDef{ID: e.temp, Body: c.defBody(e)})
	}
	for i, r := range rhs {
		res.RHS[i] = c.freeze(r)
	}
	return res
}

type cseEntry struct {
	rep       expr.Node
	prefixOf  *cseEntry
	width     int
	temp      int
	prefixLen int
	occs      int32
	key       int32 // conser ID of the kind and the variable parts
	kind      byte  // '+' or '*'
	genTemp   bool
	state     uint8 // 0 unvisited, 1 visiting, 2 emitted
}

type csePass struct {
	cfg  CSEConfig
	cons *conser
	// entryOf maps the conser ID of an entry's key (its kind and
	// variable parts) to the entry.
	entryOf []*cseEntry
	byNode  map[expr.Node]*cseEntry
	entries []*cseEntry
	order   []*cseEntry
	stack   []int32 // keys of the nodes being collected
}

func nodeChildren(n expr.Node) []expr.Node {
	switch x := n.(type) {
	case *expr.Add:
		return x.Terms
	case *expr.Mul:
		return x.Factors
	}
	return nil
}

// splitConst separates a composite node's children into the optional
// constant (canonical ordering puts it first) and the variable parts.
// Matching works over the variable parts only, so -K*C*D and +K*C*D share
// one temporary with the sign applied at each use site.
func splitConst(n expr.Node) (*expr.Const, []expr.Node) {
	kids := nodeChildren(n)
	if len(kids) > 0 {
		if c, ok := kids[0].(*expr.Const); ok {
			return c, kids[1:]
		}
	}
	return nil, kids
}

func nodeKind(n expr.Node) byte {
	switch n.(type) {
	case *expr.Add:
		return '+'
	case *expr.Mul:
		return '*'
	}
	return 0
}

// collect registers every composite subexpression of the tree and
// returns the tree's conser ID.
func (c *csePass) collect(n expr.Node) int32 {
	kids := nodeChildren(n)
	if kids == nil {
		return c.cons.leaf(n)
	}
	kind := nodeKind(n)
	base := len(c.stack)
	c.stack = append(c.stack, int32(kind))
	for _, ch := range kids {
		id := c.collect(ch)
		c.stack = append(c.stack, id)
	}
	key := c.stack[base:]
	id := c.cons.intern(key, "")
	if kind == '+' || c.cfg.Products {
		// The entry key covers the variable parts only; the constant
		// stays at the use site, and the kind takes its word.
		if _, ok := kids[0].(*expr.Const); ok {
			key = key[1:]
			key[0] = int32(kind)
		}
		// A lone variable times a constant has nothing to share.
		if len(key) >= 3 {
			c.register(n, kind, key)
		}
	}
	c.stack = c.stack[:base]
	return id
}

// register counts one occurrence of the subexpression n, whose entry key
// (its kind and the IDs of its variable parts) is key.
func (c *csePass) register(n expr.Node, kind byte, key []int32) {
	id := c.cons.intern(key, "")
	if grow := len(c.cons.nodes) - len(c.entryOf); grow > 0 {
		c.entryOf = append(c.entryOf, make([]*cseEntry, grow)...)
	}
	e := c.entryOf[id]
	if e == nil {
		e = &cseEntry{
			kind:  kind,
			rep:   n,
			key:   id,
			width: len(key) - 1,
			temp:  -1,
		}
		c.entryOf[id] = e
		c.entries = append(c.entries, e)
	}
	e.occs++
	c.byNode[n] = e
}

// compareKeys orders two entries as their rendered keys compare, the
// order Fig. 7's work lists are sorted in within one width.
func (c *csePass) compareKeys(a, b *cseEntry) int {
	return c.cons.compare(a.key, b.key)
}

// match performs full matching (shared temporaries for equal
// subexpressions) and longest-prefix matching, longest expressions first,
// exactly as Fig. 7 orders the work. prefix(e, i) returns the entry whose
// terms equal the first i terms of e, or nil.
func (c *csePass) match(prefix func(e *cseEntry, i int) *cseEntry) {
	sorted := slices.Clone(c.entries)
	// Entries are unique by key, so the order has no ties.
	slices.SortFunc(sorted, func(a, b *cseEntry) int {
		if a.width != b.width {
			return b.width - a.width
		}
		return c.compareKeys(a, b)
	})

	// Full matches: an expression occurring in two or more places gets a
	// temporary (Fig. 7 lines 4-6 collapse equal same-length expressions).
	for _, e := range sorted {
		if e.occs >= 2 {
			e.genTemp = true
		}
	}

	for _, e := range sorted {
		for i := e.width - 1; i >= 2; i-- {
			if cand := prefix(e, i); cand != nil && cand != e {
				cand.genTemp = true
				e.prefixOf = cand
				e.prefixLen = i
				break // longest prefix wins; the search stops (Fig. 7 line 11)
			}
		}
	}
}

// prefix returns the entry whose key is the kind and first i parts of
// e's, found by one conser lookup. It finds what the paper's O(m²n)
// pairwise scan of every width-i expression finds (TestPaperScanEquivalent
// holds it to that scan) in time linear in the entries: entries are unique
// by kind and parts, so at most one entry matches.
func (c *csePass) prefix(e *cseEntry, i int) *cseEntry {
	id, ok := c.cons.lookup(c.cons.key(e.key)[:1+i])
	if !ok || int(id) >= len(c.entryOf) {
		return nil
	}
	return c.entryOf[id]
}

// assignTemps orders temporary definitions so every temp is defined
// before use: dependencies (prefix temporaries and nested shared
// subexpressions) come first, with ties broken shortest-first then by key,
// matching Fig. 7's shortest-first emission (lines 12-14) while staying
// safe for nested structures.
func (c *csePass) assignTemps() {
	var gen []*cseEntry
	for _, e := range c.entries {
		if e.genTemp {
			gen = append(gen, e)
		}
	}
	slices.SortFunc(gen, func(a, b *cseEntry) int {
		if a.width != b.width {
			return a.width - b.width
		}
		return c.compareKeys(a, b)
	})
	var emit func(e *cseEntry)
	emit = func(e *cseEntry) {
		if e.state == 2 {
			return
		}
		if e.state == 1 {
			panic("opt: cycle in CSE temp dependencies")
		}
		e.state = 1
		for _, d := range c.deps(e) {
			emit(d)
		}
		e.state = 2
		e.temp = len(c.order)
		c.order = append(c.order, e)
	}
	for _, e := range gen {
		emit(e)
	}
}

// deps returns the genTemp entries the def body of e will reference.
func (c *csePass) deps(e *cseEntry) []*cseEntry {
	var out []*cseEntry
	var visit func(n expr.Node)
	visit = func(n expr.Node) {
		if g := c.byNode[n]; g != nil && g != e {
			if g.genTemp {
				out = append(out, g)
				return
			}
			if g.prefixOf != nil {
				out = append(out, g.prefixOf)
				_, parts := splitConst(n)
				for _, ch := range parts[g.prefixLen:] {
					visit(ch)
				}
				return
			}
		}
		for _, ch := range nodeChildren(n) {
			visit(ch)
		}
	}
	if e.prefixOf != nil {
		out = append(out, e.prefixOf)
	}
	_, kept := splitConst(e.rep)
	if e.prefixOf != nil {
		kept = kept[e.prefixLen:]
	}
	for _, ch := range kept {
		visit(ch)
	}
	return out
}

// defBody builds the definition tree for a temporary: the shared variable
// parts only, with the representative's constant (if any) left at the use
// sites.
func (c *csePass) defBody(e *cseEntry) expr.Node {
	_, kept := splitConst(e.rep)
	var kids []expr.Node
	if e.prefixOf != nil {
		kids = append(kids, expr.NewTempRef(e.prefixOf.temp))
		kept = kept[e.prefixLen:]
	}
	for _, ch := range kept {
		kids = append(kids, c.freeze(ch))
	}
	return rebuild(e.kind, kids)
}

// freeze returns a rewritten copy of n: occurrences of shared
// subexpressions become temporary references (scaled by the occurrence's
// own constant), prefix-matched expressions keep only their tails.
func (c *csePass) freeze(n expr.Node) expr.Node {
	if e := c.byNode[n]; e != nil {
		cst, parts := splitConst(n)
		if e.genTemp {
			ref := expr.Node(expr.NewTempRef(e.temp))
			if cst != nil {
				return rebuild(e.kind, []expr.Node{cst.Clone(), ref})
			}
			return ref
		}
		if e.prefixOf != nil {
			kids := []expr.Node{expr.NewTempRef(e.prefixOf.temp)}
			for _, ch := range parts[e.prefixLen:] {
				kids = append(kids, c.freeze(ch))
			}
			if cst != nil {
				kids = append(kids, cst.Clone())
			}
			return rebuild(e.kind, kids)
		}
	}
	kids := nodeChildren(n)
	if kids == nil {
		return n.Clone()
	}
	newKids := make([]expr.Node, len(kids))
	for i, ch := range kids {
		newKids[i] = c.freeze(ch)
	}
	return rebuild(nodeKind(n), newKids)
}

func rebuild(kind byte, kids []expr.Node) expr.Node {
	switch kind {
	case '+':
		return expr.NewAdd(kids...)
	case '*':
		return expr.NewMul(kids...)
	}
	panic(fmt.Sprintf("opt: rebuild of kind %q", kind))
}
