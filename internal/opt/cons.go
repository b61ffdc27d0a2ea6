package opt

import (
	"cmp"
	"fmt"
	"math"
	"strings"

	"rms/internal/expr"
)

// conser numbers expression trees by structure (hash-consing): two trees
// get one ID exactly when their canonical keys are equal. A key is a
// tuple of int32 words: a leaf's is its kind and the two halves of its
// symbol, literal (as it prints: -0 is 0 and every NaN is NaN) or
// temporary number; a composite's is its kind and its children's IDs.
// CSE keys subexpressions, and hoisting deduplicates prelude
// definitions, by these IDs; an expr.TupleIndex finds them, so numbering
// builds no string.
type conser struct {
	index expr.TupleIndex[int32]
	nodes []consNode
	keys  []int32 // the nodes' keys, end to end
	stack []int32 // keys of the composites being numbered
}

type consNode struct {
	text    string // a leaf's rendering: its name, literal or "$tN"; "" for composites
	at, end int32  // the node's key is keys[at:end]
}

// Kinds of leaf, the first word of a leaf's key; a composite's is its
// nodeKind, '+' or '*'.
const (
	kindVar   = 'v'
	kindConst = 'c'
	kindTemp  = 't'
)

// key returns the key of node id.
func (c *conser) key(id int32) []int32 {
	n := &c.nodes[id]
	return c.keys[n.at:n.end]
}

// id returns the ID of the tree n.
func (c *conser) id(n expr.Node) int32 {
	kids := nodeChildren(n)
	if kids == nil {
		return c.leaf(n)
	}
	base := len(c.stack)
	c.stack = append(c.stack, int32(nodeKind(n)))
	for _, ch := range kids {
		id := c.id(ch)
		c.stack = append(c.stack, id)
	}
	id := c.intern(c.stack[base:], "")
	c.stack = c.stack[:base]
	return id
}

// leaf returns the ID of a Var, Const or TempRef.
func (c *conser) leaf(n expr.Node) int32 {
	var kind int32
	var leaf uint64
	switch x := n.(type) {
	case *expr.Var:
		kind, leaf = kindVar, uint64(x.Sym)
	case *expr.Const:
		kind, leaf = kindConst, math.Float64bits(x.Val)
		switch {
		case x.Val == 0:
			leaf = 0
		case x.Val != x.Val:
			leaf = math.Float64bits(math.NaN())
		}
	case *expr.TempRef:
		kind, leaf = kindTemp, uint64(x.ID)
	default:
		panic(fmt.Sprintf("opt: conser leaf %T", n))
	}
	key := [3]int32{kind, int32(uint32(leaf)), int32(leaf >> 32)}
	id, slot := c.index.Find(key[:], c.key)
	if id < 0 {
		id = c.add(slot, key[:], leafText(n))
	}
	return id
}

// leafText renders a leaf as it appears in a canonical key.
func leafText(n expr.Node) string {
	if t, ok := n.(*expr.TempRef); ok {
		return fmt.Sprintf("$t%d", t.ID)
	}
	return n.String()
}

// intern returns the ID of key, numbering it if it is new; text is a
// leaf's rendering.
func (c *conser) intern(key []int32, text string) int32 {
	id, slot := c.index.Find(key, c.key)
	if id < 0 {
		id = c.add(slot, key, text)
	}
	return id
}

// lookup returns the ID of a key without numbering it.
func (c *conser) lookup(key []int32) (int32, bool) {
	id, _ := c.index.Find(key, c.key)
	return id, id >= 0
}

// add numbers a new key that Find missed at slot.
func (c *conser) add(slot int, key []int32, text string) int32 {
	id := int32(len(c.nodes))
	at := int32(len(c.keys))
	c.keys = append(c.keys, key...)
	c.nodes = append(c.nodes, consNode{text: text, at: at, end: int32(len(c.keys))})
	c.index.Insert(slot, id, c.key)
	return id
}

// compare orders two IDs as their rendered keys compare byte-wise. A
// leaf renders as its text and a composite as "(" kind (" " child)* ")",
// e.g. "(+ A (* K_b B))". Names and literals never contain a space or a
// parenthesis, and every byte that can extend one sorts after ' ' and
// ')', so the comparison can walk the two trees instead of rendering
// them.
func (c *conser) compare(a, b int32) int {
	if a == b {
		return 0
	}
	x, y := &c.nodes[a], &c.nodes[b]
	switch {
	case x.text != "" && y.text != "":
		return strings.Compare(x.text, y.text)
	case x.text != "":
		return cmp.Compare(x.text[0], '(')
	case y.text != "":
		return cmp.Compare('(', y.text[0])
	}
	ka, kb := c.key(a), c.key(b)
	if ka[0] != kb[0] {
		return cmp.Compare(ka[0], kb[0])
	}
	for i := 1; i < min(len(ka), len(kb)); i++ {
		if r := c.compare(ka[i], kb[i]); r != 0 {
			return r
		}
	}
	// Past the common children the longer key goes on with ' ' where the
	// shorter one closes with ')'.
	return cmp.Compare(len(kb), len(ka))
}
