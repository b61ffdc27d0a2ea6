// Vulcanization workflow: the paper's end-to-end use case. Build the
// sulfur-vulcanization kinetic model, synthesize experimental
// crosslink-concentration curves from the ground-truth rate constants,
// then recover the uncertain constants with the parallel parameter
// estimator — the loop of Fig. 1 that used to take a researcher months.
//
//	go run ./examples/vulcanization
package main

import (
	"fmt"
	"log"
	"math"

	"rms"
	"rms/internal/codegen"
	"rms/internal/dataset"
	"rms/internal/estimator"
	"rms/internal/nlopt"
	"rms/internal/ode"
	"rms/internal/sched"
	"rms/internal/vulcan"
)

func main() {
	const variants = 10
	net, err := vulcan.Network(variants)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rms.CompileNetwork(net, rms.Config{
		Optimize:         rms.FullOptimization(),
		AnalyticJacobian: true, // exact ∂f/∂y for the stiff solver
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compiled vulcanization model:", res.Report())

	kTrue, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		log.Fatal(err)
	}
	prop := vulcan.CrosslinkProperty(res.System)

	// Synthesize four "rheometer" files by solving the true model.
	curve := solveCurve(res.Tape, res.System.Y0, kTrue, prop)
	var files []*dataset.File
	for i := 0; i < 4; i++ {
		files = append(files, dataset.Synthesize(curve, dataset.SynthesizeOptions{
			Name:    fmt.Sprintf("formulation%02d", i+1),
			Records: 120 + 60*i,
			T0:      0, T1: 2,
			Noise: 5e-5,
			Seed:  int64(i),
		}))
	}
	fmt.Printf("synthesized %d experimental files\n", len(files))

	// Fit: the chemist knows most constants from quantum chemistry and
	// fits the two uncertain ones (scission and crosslinking) within a
	// decade of their nominal values.
	model := res.Model(prop, ode.Options{RTol: 1e-9, ATol: 1e-12})
	est, err := estimator.New(model, files, estimator.Config{Ranks: 2, Policy: sched.PolicyLPT})
	if err != nil {
		log.Fatal(err)
	}
	n := len(res.System.Rates)
	lower := make([]float64, n)
	upper := make([]float64, n)
	start := make([]float64, n)
	free := map[string]bool{"K_sc": true, "K_cross": true}
	for i, name := range res.System.Rates {
		truth := vulcan.TrueRates[name]
		if free[name] {
			lower[i], upper[i], start[i] = truth/10, truth*10, truth*2.5
		} else {
			lower[i], upper[i], start[i] = truth, truth, truth
		}
	}
	fit, err := est.Estimate(start, lower, upper, nlopt.Options{MaxIter: 40, RelStep: 1e-4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fit: converged=%v iterations=%d rnorm=%.3g\n",
		fit.Converged, fit.Iterations, fit.RNorm)
	fmt.Println("constant   fitted    true      error")
	for i, name := range res.System.Rates {
		if !free[name] {
			continue
		}
		truth := vulcan.TrueRates[name]
		fmt.Printf("%-10s %-9.4f %-9.4f %+.2f%%\n",
			name, fit.X[i], truth, 100*(fit.X[i]-truth)/truth)
	}
	_ = math.Abs
}

func solveCurve(prog *codegen.Program, y0, k []float64,
	prop func([]float64) float64) dataset.PropertyFunc {

	ev := prog.NewEvaluator()
	rhs := func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }
	solver := ode.NewBDF(rhs, len(y0), ode.Options{RTol: 1e-9, ATol: 1e-12})
	const samples = 256
	y := append([]float64(nil), y0...)
	vs := make([]float64, samples+1)
	vs[0] = prop(y)
	for i := 1; i <= samples; i++ {
		if err := solver.Integrate(2*float64(i-1)/samples, 2*float64(i)/samples, y); err != nil {
			log.Fatal(err)
		}
		vs[i] = prop(y)
	}
	return func(t float64) float64 {
		x := t / 2 * samples
		i := int(x)
		if i < 0 {
			return vs[0]
		}
		if i >= samples {
			return vs[samples]
		}
		f := x - float64(i)
		return vs[i]*(1-f) + vs[i+1]*f
	}
}
