package opt

import (
	"fmt"
	"hash/fnv"
	"sort"

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
	c.match(c.prefixIndex())
	return c.result(rhs)
}

// collectCSE registers every composite subexpression of the right-hand
// sides.
func collectCSE(rhs []expr.Node, cfg CSEConfig) *csePass {
	c := &csePass{
		cfg:    cfg,
		byKey:  make(map[string]*cseEntry),
		byNode: make(map[expr.Node]*cseEntry),
		keys:   make(map[expr.Node]string),
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
	kind      byte // '+' or '*'
	rep       expr.Node
	occs      int
	childKeys []string
	hashes    []uint64 // hashes[i] covers childKeys[:i], valid for i in [2,width]
	width     int
	temp      int
	genTemp   bool
	prefixOf  *cseEntry
	prefixLen int
	state     int    // 0 unvisited, 1 visiting, 2 emitted
	key       string // canonical identity over the variable parts
}

type csePass struct {
	cfg     CSEConfig
	byKey   map[string]*cseEntry
	byNode  map[expr.Node]*cseEntry
	keys    map[expr.Node]string
	entries []*cseEntry
	order   []*cseEntry
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

// key computes and memoizes a node's canonical key bottom-up.
func (c *csePass) key(n expr.Node) string {
	if k, ok := c.keys[n]; ok {
		return k
	}
	var k string
	kids := nodeChildren(n)
	if kids == nil {
		k = n.Key()
	} else {
		parts := make([]byte, 0, 16*len(kids))
		parts = append(parts, '(', nodeKind(n))
		for _, ch := range kids {
			parts = append(parts, ' ')
			parts = append(parts, c.key(ch)...)
		}
		parts = append(parts, ')')
		k = string(parts)
	}
	c.keys[n] = k
	return k
}

// collect registers every composite subexpression of the tree.
func (c *csePass) collect(n expr.Node) {
	kids := nodeChildren(n)
	if kids == nil {
		return
	}
	for _, ch := range kids {
		c.collect(ch)
	}
	kind := nodeKind(n)
	if kind == '*' && !c.cfg.Products {
		return
	}
	_, parts := splitConst(n)
	if len(parts) < 2 {
		return // a lone variable times a constant has nothing to share
	}
	// The entry key covers the variable parts only; the constant stays at
	// the use site.
	childKeys := make([]string, len(parts))
	for i, ch := range parts {
		childKeys[i] = c.key(ch)
	}
	k := entryKey(kind, childKeys)
	e := c.byKey[k]
	if e == nil {
		e = &cseEntry{
			kind:      kind,
			rep:       n,
			childKeys: childKeys,
			width:     len(parts),
			temp:      -1,
			key:       k,
		}
		e.hashes = prefixHashes(kind, childKeys)
		c.byKey[k] = e
		c.entries = append(c.entries, e)
	}
	e.occs++
	c.byNode[n] = e
}

func entryKey(kind byte, childKeys []string) string {
	parts := make([]byte, 0, 16*len(childKeys))
	parts = append(parts, '(', kind)
	for _, k := range childKeys {
		parts = append(parts, ' ')
		parts = append(parts, k...)
	}
	parts = append(parts, ')')
	return string(parts)
}

// prefixHashes returns FNV-1a hashes of childKeys[:i] for every i; index i
// of the result covers the first i keys.
func prefixHashes(kind byte, childKeys []string) []uint64 {
	h := fnv.New64a()
	h.Write([]byte{kind})
	out := make([]uint64, len(childKeys)+1)
	out[0] = h.Sum64()
	for i, k := range childKeys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		out[i+1] = h.Sum64()
	}
	return out
}

// match performs full matching (shared temporaries for equal
// subexpressions) and longest-prefix matching, longest expressions first,
// exactly as Fig. 7 orders the work. prefix(e, i) returns the entry whose
// terms equal the first i terms of e, or nil.
func (c *csePass) match(prefix func(e *cseEntry, i int) *cseEntry) {
	sorted := append([]*cseEntry(nil), c.entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].width != sorted[j].width {
			return sorted[i].width > sorted[j].width
		}
		return sorted[i].key < sorted[j].key
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

// prefixIndex returns the prefix lookup over a hash index of the entries
// by width and child-key hash. It finds what the paper's O(m²n) pairwise
// scan of every width-i expression finds (TestPaperScanEquivalent holds
// it to that scan) in time linear in the entries: entries are unique by
// kind and child keys, so at most one entry matches.
func (c *csePass) prefixIndex() func(e *cseEntry, i int) *cseEntry {
	index := make(map[int]map[uint64][]*cseEntry)
	for _, e := range c.entries {
		m := index[e.width]
		if m == nil {
			m = make(map[uint64][]*cseEntry)
			index[e.width] = m
		}
		h := e.hashes[e.width]
		m[h] = append(m[h], e)
	}
	return func(e *cseEntry, i int) *cseEntry {
		for _, g := range index[i][e.hashes[i]] {
			if g.kind == e.kind && equalKeys(g.childKeys, e.childKeys[:i]) {
				return g
			}
		}
		return nil
	}
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
	sort.Slice(gen, func(i, j int) bool {
		if gen[i].width != gen[j].width {
			return gen[i].width < gen[j].width
		}
		return gen[i].key < gen[j].key
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
