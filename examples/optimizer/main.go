// Optimizer walkthrough: feed the paper's own worked examples through the
// algebraic optimizer and watch each pass transform them.
//
//	go run ./examples/optimizer
package main

import (
	"fmt"

	"rms/internal/expr"
	"rms/internal/opt"
)

func main() {
	// One symbol table interns every name the examples use.
	syms := expr.NewSymbols("k1", "k2", "k3", "K_CD", "A", "B", "C", "D", "E", "F", "G")
	product := func(coef float64, names ...string) expr.Product {
		fs := make([]expr.Sym, len(names))
		for i, n := range names {
			fs[i] = syms.Sym(n)
		}
		return expr.NewProduct(coef, fs...)
	}
	v := func(name string) expr.Node { return syms.Var(syms.Sym(name)) }

	fmt.Println("=== §3.1 Equation simplification ===")
	s := expr.NewSum(syms)
	s.Add(product(2, "k1", "B", "C"))
	s.Add(product(3, "k1", "B", "C"))
	fmt.Println("2*k1*B*C + 3*k1*B*C  →ₘₑᵣᵍₑ ", s)

	fmt.Println("\n=== §3.2 Distributive optimization (Fig. 6) ===")
	eq := expr.SumOf(syms,
		product(1, "k1", "B", "C"),
		product(1, "k1", "B", "D"),
		product(1, "k1", "E", "F"),
	)
	m0, a0 := eq.CountOps()
	factored := opt.DistOpt(eq)
	m1, a1 := expr.CountOps(factored)
	fmt.Printf("before: %s   (%d muls, %d adds)\n", eq, m0, a0)
	fmt.Printf("after:  %s   (%d muls, %d adds)\n", factored, m1, a1)

	fmt.Println("\n=== §3.3 Common-subexpression elimination (Fig. 7) ===")
	mkSum := func(names ...string) expr.Node {
		terms := make([]expr.Node, len(names))
		for i, n := range names {
			terms[i] = v(n)
		}
		return expr.NewAdd(terms...)
	}
	rhs := []expr.Node{
		expr.NewMul(mkSum("A", "B", "C", "D"), v("k1"), v("E")),
		expr.NewMul(mkSum("A", "B", "C", "D"), v("k2"), v("F")),
		expr.NewMul(mkSum("A", "B", "C"), v("k3"), v("G")),
	}
	fmt.Println("input equations:")
	for i, r := range rhs {
		fmt.Printf("  d%c/dt = %s\n", 'A'+i, r)
	}
	res := opt.CSE(rhs, opt.CSEConfig{})
	fmt.Println("after CSE:")
	for _, d := range res.Temps {
		fmt.Printf("  temp[%d] = %s\n", d.ID, d.Body)
	}
	for i, r := range res.RHS {
		fmt.Printf("  d%c/dt = %s\n", 'A'+i, r)
	}

	fmt.Println("\n=== Product sharing across equations (Fig. 5 fluxes) ===")
	flux := func(c float64) expr.Node {
		return expr.NewMul(expr.NewConst(c),
			v("K_CD"), v("C"), v("D"))
	}
	rhs2 := []expr.Node{flux(-1), flux(-1), flux(1)}
	fmt.Println("input: dC/dt = -K_CD*C*D ; dD/dt = -K_CD*C*D ; dE/dt = +K_CD*C*D")
	res2 := opt.CSE(rhs2, opt.CSEConfig{Products: true})
	for _, d := range res2.Temps {
		fmt.Printf("  temp[%d] = %s\n", d.ID, d.Body)
	}
	for i, r := range res2.RHS {
		fmt.Printf("  d%c/dt = %s\n", 'C'+i, r)
	}
}
