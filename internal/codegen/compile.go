package codegen

import (
	"fmt"

	"rms/internal/expr"
	"rms/internal/opt"
)

// Compile lowers an optimized system to a tape Program. Temporary
// definitions compile first (they are already in def-before-use order),
// then each equation's right-hand side; the resulting slot of each
// equation is recorded in Out.
func Compile(z *opt.Optimized) (*Program, error) {
	c := &compiler{
		constSlot: make(map[float64]int32),
		tempSlot:  make([]int32, len(z.Temps)),
	}
	// Pre-pass: collect the literal pool so the slot layout
	// [consts | y | k | scratch] is fixed before emission.
	for _, t := range z.Temps {
		c.collectConsts(t.Body)
	}
	for _, r := range z.RHS {
		c.collectConsts(r)
	}
	c.prog = &Program{
		NumY:   len(z.Species),
		NumK:   len(z.Rates),
		Consts: c.consts,
	}
	c.next = int32(len(c.consts) + c.prog.NumY + c.prog.NumK)
	c.varSlot = varSlots(z, c.prog.YSlot, c.prog.KSlot)

	for i, t := range z.Temps {
		if i == z.NumPrelude {
			// Prelude boundary: everything so far runs once per rate
			// vector.
			c.prog.Prelude = c.prog.Code
			c.prog.Code = nil
		}
		slot, err := c.emit(t.Body)
		if err != nil {
			return nil, fmt.Errorf("codegen: temp[%d]: %w", i, err)
		}
		c.tempSlot[i] = slot
	}
	if z.NumPrelude > 0 && z.NumPrelude == len(z.Temps) {
		c.prog.Prelude = c.prog.Code
		c.prog.Code = nil
	}
	c.prog.Out = make([]int32, len(z.RHS))
	for i, r := range z.RHS {
		slot, err := c.emit(r)
		if err != nil {
			return nil, fmt.Errorf("codegen: equation %d (%s): %w", i, z.Species[i], err)
		}
		c.prog.Out[i] = slot
	}
	c.prog.NumSlots = int(c.next)
	return c.prog, nil
}

type compiler struct {
	prog      *Program
	consts    []float64
	constSlot map[float64]int32
	varSlot   []int32 // by symbol; -1 for a symbol that is no variable
	tempSlot  []int32
	next      int32
}

// varSlots maps every symbol of z to y(i) for species i, k(j) for rate
// constant j, or -1, matching by name.
func varSlots(z *opt.Optimized, y, k func(int) int32) []int32 {
	slot := make([]int32, z.Syms.Len())
	for i := range slot {
		slot[i] = -1
	}
	for j, r := range z.Rates {
		if s, ok := z.Syms.Lookup(r); ok {
			slot[s] = k(j)
		}
	}
	for i, name := range z.Species {
		if s, ok := z.Syms.Lookup(name); ok {
			slot[s] = y(i)
		}
	}
	return slot
}

func (c *compiler) collectConsts(n expr.Node) {
	expr.Walk(n, func(m expr.Node) {
		if k, ok := m.(*expr.Const); ok {
			c.internConst(k.Val)
		}
	})
}

func (c *compiler) internConst(v float64) int32 {
	if s, ok := c.constSlot[v]; ok {
		return s
	}
	s := int32(len(c.consts))
	c.consts = append(c.consts, v)
	c.constSlot[v] = s
	return s
}

func (c *compiler) fresh() int32 {
	s := c.next
	c.next++
	return s
}

// emit compiles a node and returns the slot holding its value.
func (c *compiler) emit(n expr.Node) (int32, error) {
	switch x := n.(type) {
	case *expr.Const:
		return c.constSlot[x.Val], nil
	case *expr.Var:
		if s := c.varSlot[x.Sym]; s >= 0 {
			return s, nil
		}
		return 0, fmt.Errorf("unknown variable %q", x.Name)
	case *expr.TempRef:
		if x.ID < 0 || x.ID >= len(c.tempSlot) {
			return 0, fmt.Errorf("temp[%d] out of range", x.ID)
		}
		return c.tempSlot[x.ID], nil
	case *expr.Mul:
		return c.emitMul(x)
	case *expr.Add:
		return c.emitChain(x.Terms, OpAdd)
	}
	return 0, fmt.Errorf("unknown node %T", n)
}

// emitMul compiles a product, turning a ±1 coefficient into sign handling
// (a leading -1 becomes one negation; +1 vanishes) so tape op counts match
// the static CountOps accounting.
func (c *compiler) emitMul(m *expr.Mul) (int32, error) {
	factors := m.Factors
	negate := false
	if k, ok := factors[0].(*expr.Const); ok && len(factors) > 1 {
		if k.Val == 1 {
			factors = factors[1:]
		} else if k.Val == -1 {
			negate = true
			factors = factors[1:]
		}
	}
	slot, err := c.emitChain(factors, OpMul)
	if err != nil {
		return 0, err
	}
	if negate {
		dst := c.fresh()
		c.prog.Code = append(c.prog.Code, Instr{Op: OpNeg, Dst: dst, A: slot})
		slot = dst
	}
	return slot, nil
}

// emitChain compiles a left-to-right reduction of the operand list.
func (c *compiler) emitChain(operands []expr.Node, op OpCode) (int32, error) {
	if len(operands) == 0 {
		return 0, fmt.Errorf("empty %v chain", op)
	}
	acc, err := c.emit(operands[0])
	if err != nil {
		return 0, err
	}
	for _, o := range operands[1:] {
		s, err := c.emit(o)
		if err != nil {
			return 0, err
		}
		dst := c.fresh()
		c.prog.Code = append(c.prog.Code, Instr{Op: op, Dst: dst, A: acc, B: s})
		acc = dst
	}
	return acc, nil
}
