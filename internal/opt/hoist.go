package opt

import (
	"slices"

	"rms/internal/expr"
)

// hoistKInvariants moves subexpressions built purely from literals and
// kinetic rate constants out of the per-evaluation code into a prelude
// that runs once per rate-constant vector. Inside the ODE solver the rate
// constants are fixed — they change only between iterations of the
// non-linear optimizer — so coefficient–rate products like 3*K_init (the
// §3.1 merge of three equivalent-site instances) and rate sums like
// (K_init + K_mat) are loop-invariant. This is the same piece of domain
// knowledge the paper's rate-constant information processor exploits when
// it renames constants by common value: a derived constant is a named
// value computed away from the hot loop.
//
// The pass rewrites z in place: hoisted definitions plus existing k-only
// temporaries become the first z.NumPrelude entries of z.Temps, every
// TempRef is renumbered, and inside every product the k-only factors
// collapse into a single prelude reference when that saves work.
func hoistKInvariants(z *Optimized) {
	h := &hoister{
		rate:    make([]bool, z.Syms.Len()),
		cons:    &conser{},
		hoisted: make(map[int32]int),
	}
	for _, r := range z.Rates {
		h.rate[z.Syms.Sym(r)] = true
	}
	// Classify existing temps: a temp is k-only if its body reads only
	// rates, literals and other k-only temps. Defs are in def-before-use
	// order, so one forward pass suffices.
	kOnlyTemp := make([]bool, len(z.Temps))
	for i, t := range z.Temps {
		kOnlyTemp[i] = h.kOnly(t.Body, kOnlyTemp)
	}
	h.kOnlyTemp = kOnlyTemp

	// New numbering: k-only temps move to the front of the prelude in
	// their original relative order; hoisted definitions discovered
	// during rewriting append after them; main temps follow the whole
	// prelude. Main-temp IDs are provisional (sentinel-tagged) until the
	// prelude stops growing.
	h.remap = make([]int, len(z.Temps))
	var mainOld []int
	for i, t := range z.Temps {
		if kOnlyTemp[i] {
			h.remap[i] = len(h.prelude)
			h.prelude = append(h.prelude, t)
		} else {
			h.remap[i] = -1
			mainOld = append(mainOld, i)
		}
	}
	// K-only temp bodies reference only other (earlier) k-only temps.
	for i, t := range z.Temps {
		if kOnlyTemp[i] {
			h.prelude[h.remap[i]] = TempDef{Body: h.renumberOnly(t.Body)}
		}
	}
	mainBodies := make([]expr.Node, len(mainOld))
	for mi, i := range mainOld {
		mainBodies[mi] = h.rewrite(z.Temps[i].Body)
	}
	for i := range z.RHS {
		z.RHS[i] = h.rewrite(z.RHS[i])
	}

	// Final IDs.
	p := len(h.prelude)
	oldToNew := make(map[int]int, len(mainOld))
	for mi, i := range mainOld {
		oldToNew[i] = p + mi
	}
	all := make([]TempDef, 0, p+len(mainOld))
	for i := range h.prelude {
		all = append(all, TempDef{ID: i, Body: h.prelude[i].Body})
	}
	for mi := range mainBodies {
		all = append(all, TempDef{ID: p + mi, Body: mainBodies[mi]})
	}
	z.Temps = all
	z.NumPrelude = p
	resolveMainRefs(z, oldToNew)
}

type hoister struct {
	rate      []bool // by symbol: is it a rate constant
	kOnlyTemp []bool
	prelude   []TempDef
	cons      *conser
	hoisted   map[int32]int // conser ID of a hoisted body -> prelude index
	remap     []int         // old temp ID -> prelude index (k-only temps)
}

// kOnly reports whether n reads only literals, rate constants and k-only
// temps.
func (h *hoister) kOnly(n expr.Node, kOnlyTemp []bool) bool {
	ok := true
	expr.Walk(n, func(m expr.Node) {
		switch x := m.(type) {
		case *expr.Var:
			if !h.rate[x.Sym] {
				ok = false
			}
		case *expr.TempRef:
			if x.ID >= len(kOnlyTemp) || !kOnlyTemp[x.ID] {
				ok = false
			}
		}
	})
	return ok
}

// intern deduplicates a hoisted definition by structure and returns its
// prelude ID.
func (h *hoister) intern(body expr.Node) int {
	key := h.cons.id(body)
	if id, ok := h.hoisted[key]; ok {
		return id
	}
	id := len(h.prelude)
	h.prelude = append(h.prelude, TempDef{Body: body})
	h.hoisted[key] = id
	return id
}

// renumberOnly rewrites TempRefs of a k-only body to prelude IDs.
func (h *hoister) renumberOnly(n expr.Node) expr.Node {
	switch x := n.(type) {
	case *expr.TempRef:
		return expr.NewTempRef(h.remap[x.ID])
	case *expr.Mul:
		kids := make([]expr.Node, len(x.Factors))
		for i, f := range x.Factors {
			kids[i] = h.renumberOnly(f)
		}
		return expr.NewMul(kids...)
	case *expr.Add:
		kids := make([]expr.Node, len(x.Terms))
		for i, t := range x.Terms {
			kids[i] = h.renumberOnly(t)
		}
		return expr.NewAdd(kids...)
	default:
		return n.Clone()
	}
}

// rewrite hoists k-only subtrees of a main-code tree and renumbers temp
// references. Provisional main-temp IDs are handled by the caller's
// second pass; prelude IDs are final.
func (h *hoister) rewrite(n expr.Node) expr.Node {
	// A fully k-only composite hoists wholesale when it costs anything.
	if m, a := expr.CountOps(n); m+a > 0 && h.kOnly(n, h.kOnlyTemp) {
		if nodeKind(n) != 0 {
			return expr.NewTempRef(h.intern(h.renumberOnly(n)))
		}
	}
	switch x := n.(type) {
	case *expr.TempRef:
		if x.ID < len(h.kOnlyTemp) && h.kOnlyTemp[x.ID] {
			return expr.NewTempRef(h.remap[x.ID])
		}
		return expr.NewTempRef(x.ID + mainOffsetSentinel)
	case *expr.Mul:
		return h.rewriteMul(x)
	case *expr.Add:
		kids := make([]expr.Node, len(x.Terms))
		for i, t := range x.Terms {
			kids[i] = h.rewrite(t)
		}
		return expr.NewAdd(kids...)
	default:
		return n.Clone()
	}
}

// rewriteMul groups a product's k-only factors (beyond a bare ±1 sign or
// a single cheap leaf) into one prelude reference.
func (h *hoister) rewriteMul(m *expr.Mul) expr.Node {
	var kFactors, rest []expr.Node
	for _, f := range m.Factors {
		if h.isKLeafOrTree(f) {
			kFactors = append(kFactors, f)
		} else {
			rest = append(rest, h.rewrite(f))
		}
	}
	// Count the evaluation cost of the k-only group: hoist only when the
	// group would cost at least one operation per evaluation.
	cost := len(kFactors) - 1
	if cost >= 1 && !onlySign(kFactors) {
		group := expr.NewMul(renumberAll(h, kFactors)...)
		if nodeKind(group) == 0 {
			// Collapsed to a leaf (e.g. constant folding); keep it inline.
			rest = append(rest, group)
		} else {
			rest = append(rest, expr.NewTempRef(h.intern(group)))
		}
		return expr.NewMul(rest...)
	}
	for _, f := range kFactors {
		rest = append(rest, h.renumberOnly(f))
	}
	return expr.NewMul(rest...)
}

// isKLeafOrTree reports whether a factor is entirely k-only.
func (h *hoister) isKLeafOrTree(n expr.Node) bool {
	return h.kOnly(n, h.kOnlyTemp)
}

// onlySign reports whether the k-only group is just a ±1 constant —
// nothing to hoist.
func onlySign(fs []expr.Node) bool {
	if len(fs) != 1 {
		return false
	}
	c, ok := fs[0].(*expr.Const)
	return ok && (c.Val == 1 || c.Val == -1)
}

func renumberAll(h *hoister, fs []expr.Node) []expr.Node {
	out := make([]expr.Node, len(fs))
	for i, f := range fs {
		out[i] = h.renumberOnly(f)
	}
	return out
}

// mainOffsetSentinel marks provisional main-temp IDs during rewriting;
// resolveMainRefs subtracts it and adds the prelude length.
const mainOffsetSentinel = 1 << 28

// resolveMainRefs fixes provisional main-temp references after the
// prelude size is known.
func resolveMainRefs(z *Optimized, oldToNew map[int]int) {
	var fix func(n expr.Node)
	fix = func(n expr.Node) {
		switch x := n.(type) {
		case *expr.TempRef:
			if x.ID >= mainOffsetSentinel {
				x.ID = oldToNew[x.ID-mainOffsetSentinel]
			}
		case *expr.Mul:
			for _, f := range x.Factors {
				fix(f)
			}
		case *expr.Add:
			for _, t := range x.Terms {
				fix(t)
			}
		}
	}
	for i := range z.Temps {
		fix(z.Temps[i].Body)
	}
	for _, r := range z.RHS {
		fix(r)
	}
	slices.SortStableFunc(z.Temps, func(a, b TempDef) int { return a.ID - b.ID })
}
