// Workflow: the paper's Fig. 1 loop in one program. A chemist proposes a
// reaction model, the compiler turns it into ODEs, the parallel estimator
// fits the kinetic constants against experimental data, and the
// statistical analysis says whether the model explains the measurements —
// if not, the chemist revises the mechanism and repeats. Here the first
// proposal omits a reaction class (no reverse scission), fits poorly, and
// the revised mechanism fits tightly.
//
//	go run ./examples/workflow
package main

import (
	"fmt"
	"log"

	"rms"
	"rms/internal/dataset"
	"rms/internal/estimator"
	"rms/internal/nlopt"
	"rms/internal/ode"
	"rms/internal/sched"
	"rms/internal/stats"
)

// The true chemistry: a disulfide bridge breaks homolytically AND the
// radicals recombine (reversible scission).
const trueModel = `
species Bridge  = "C[S:1][S:2]C" init 1.0
reaction Scission {
    reactants Bridge
    disconnect 1:1 1:2
    rate K_f reverse K_r
}
`

// Proposal 1: the chemist forgets the recombination.
const proposal1 = `
species Bridge  = "C[S:1][S:2]C" init 1.0
reaction Scission {
    reactants Bridge
    disconnect 1:1 1:2
    rate K_f
}
`

func main() {
	// "Collect experimental data": solve the true model at K_f=2, K_r=5
	// and record the bridge concentration, which relaxes to an
	// equilibrium — the signature the irreversible model cannot produce.
	data := experiment()
	fmt.Printf("experimental data: %d files, %d+%d records\n",
		len(data), data[0].NumRecords(), data[1].NumRecords())

	fmt.Println("\n--- proposal 1: irreversible scission ---")
	good1 := fitAndAnalyze(proposal1, data)

	fmt.Println("\n--- proposal 2: reversible scission ---")
	good2 := fitAndAnalyze(trueModel, data)

	fmt.Println()
	switch {
	case good2.R2 > 0.999 && good1.R2 < good2.R2:
		fmt.Printf("verdict: revision accepted (R² %.4f → %.6f)\n", good1.R2, good2.R2)
	default:
		fmt.Println("verdict: inconclusive — collect more data")
	}
}

// experiment synthesizes the measured bridge-concentration curves from
// the ground-truth model.
func experiment() []*dataset.File {
	res, err := rms.Compile(trueModel, rms.Config{Optimize: rms.FullOptimization()})
	if err != nil {
		log.Fatal(err)
	}
	kTrue := rateVector(res, map[string]float64{"K_f": 2, "K_r": 5})
	curve := sampleBridge(res, kTrue)
	return []*dataset.File{
		dataset.Synthesize(curve, dataset.SynthesizeOptions{
			Name: "run1", Records: 120, T0: 0, T1: 3, Noise: 2e-4, Seed: 1}),
		dataset.Synthesize(curve, dataset.SynthesizeOptions{
			Name: "run2", Records: 80, T0: 0, T1: 3, Noise: 2e-4, Seed: 2}),
	}
}

// fitAndAnalyze compiles a proposed mechanism, fits its constants, and
// prints the Fig. 1 statistics.
func fitAndAnalyze(src string, data []*dataset.File) stats.Fit {
	res, err := rms.Compile(src, rms.Config{
		Optimize:         rms.FullOptimization(),
		AnalyticJacobian: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	model := res.Model(bridgeProperty(res), ode.Options{RTol: 1e-9, ATol: 1e-12})
	est, err := estimator.New(model, data, estimator.Config{Ranks: 2, Policy: sched.PolicyLPT})
	if err != nil {
		log.Fatal(err)
	}
	n := len(res.System.Rates)
	lower := make([]float64, n)
	upper := make([]float64, n)
	start := make([]float64, n)
	for i := range lower {
		lower[i], upper[i], start[i] = 0.01, 50, 1
	}
	fit, err := est.Estimate(start, lower, upper,
		nlopt.Options{MaxIter: 60, RelStep: 1e-4, KeepJacobian: true})
	if err != nil {
		log.Fatal(err)
	}
	good, ivs, err := est.Analyze(fit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted in %d iterations: %s\n", fit.Iterations, good)
	fmt.Print(stats.FormatIntervals(res.System.Rates, ivs))
	return good
}

func rateVector(res *rms.Result, vals map[string]float64) []float64 {
	k := make([]float64, len(res.System.Rates))
	for i, name := range res.System.Rates {
		k[i] = vals[name]
	}
	return k
}

// bridgeProperty reads the bridge concentration (y index of species
// "Bridge").
func bridgeProperty(res *rms.Result) func([]float64) float64 {
	idx := -1
	for i, s := range res.System.Species {
		if s == "Bridge" {
			idx = i
		}
	}
	return func(y []float64) float64 { return y[idx] }
}

// sampleBridge solves the model once on a fine grid and interpolates.
func sampleBridge(res *rms.Result, k []float64) dataset.PropertyFunc {
	prop := bridgeProperty(res)
	ev := res.Tape.NewEvaluator()
	rhs := func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }
	solver := ode.NewBDF(rhs, len(res.System.Y0), ode.Options{RTol: 1e-10, ATol: 1e-13})
	const samples = 300
	vals := make([]float64, samples+1)
	y := append([]float64(nil), res.System.Y0...)
	vals[0] = prop(y)
	for i := 1; i <= samples; i++ {
		if err := solver.Integrate(3*float64(i-1)/samples, 3*float64(i)/samples, y); err != nil {
			log.Fatal(err)
		}
		vals[i] = prop(y)
	}
	return func(t float64) float64 {
		x := t / 3 * samples
		i := int(x)
		if i < 0 {
			return vals[0]
		}
		if i >= samples {
			return vals[samples]
		}
		f := x - float64(i)
		return vals[i]*(1-f) + vals[i+1]*f
	}
}
