// Quickstart: compile a tiny reaction model from RDL source, inspect
// every intermediate artifact (reaction network, ODEs, optimized C), and
// simulate the kinetics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rms"
	"rms/internal/ode"
)

// A minimal sulfur-exchange model: a disulfide bridge breaks
// homolytically, and a methyl radical caps the resulting thiyl radical.
const source = `
# Species: a dimethyl disulfide bridge, its thiyl fragment, a methyl
# radical, and the capped product.
species Bridge = "C[S:1][S:2]C" init 1.0
species Methyl = "[CH3:3]"      init 0.5

reaction Scission {
    reactants Bridge
    disconnect 1:1 1:2
    rate K_sc
}

reaction Cap {
    reactants Bridge, Methyl
    disconnect 1:1 1:2
    connect    1:1 2:3
    rate K_cap
}
`

func main() {
	res, err := rms.Compile(source, rms.Config{
		Optimize: rms.FullOptimization(),
		RCIP:     "K_sc = 2\nK_cap = 3",
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Reaction network (intermediate equations, Fig. 3 form) ===")
	fmt.Print(res.Network.Dump())

	fmt.Println("\n=== Generated ODEs (Fig. 5 form) ===")
	fmt.Print(res.System.String())

	fmt.Println("\n=== Op-count report ===")
	fmt.Println(res.Report())

	fmt.Println("\n=== Generated C ===")
	fmt.Print(res.C)

	// Integrate with the Adams-Gear solver: k vector in res.System.Rates
	// order.
	k := make([]float64, len(res.System.Rates))
	vals := map[string]float64{"K_sc": 2, "K_cap": 3}
	for i, name := range res.System.Rates {
		k[i] = vals[name]
	}
	ev := res.Tape.NewEvaluator()
	rhs := func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }
	solver := ode.NewBDF(rhs, len(res.System.Y0), ode.Options{RTol: 1e-8, ATol: 1e-10})

	y := append([]float64(nil), res.System.Y0...)
	fmt.Println("\n=== Simulation (concentrations over time) ===")
	fmt.Printf("%-6s", "t")
	for _, s := range res.System.Species {
		fmt.Printf(" %-12s", s)
	}
	fmt.Println()
	print := func(t float64) {
		fmt.Printf("%-6.2f", t)
		for _, v := range y {
			fmt.Printf(" %-12.6f", v)
		}
		fmt.Println()
	}
	print(0)
	for _, t := range []float64{0.1, 0.25, 0.5, 1, 2} {
		prev := 0.0
		if t > 0.1 {
			prev = tPrev(t)
		}
		if err := solver.Integrate(prev, t, y); err != nil {
			log.Fatal(err)
		}
		print(t)
	}
}

func tPrev(t float64) float64 {
	steps := []float64{0.1, 0.25, 0.5, 1, 2}
	for i, s := range steps {
		if s == t && i > 0 {
			return steps[i-1]
		}
	}
	return 0
}
