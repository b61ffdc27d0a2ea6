// Command rmsgen generates the benchmark assets of the paper's
// evaluation: a vulcanization test-case model of the requested size, its
// generated C code (optimized and unoptimized), and a set of synthetic
// experimental data files recording the crosslink-concentration evolution
// of the ground-truth model — the inputs the parameter estimator fits.
//
// Usage:
//
//	rmsgen -variants 60 -files 16 -out ./bench-assets
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rms/internal/codegen"
	"rms/internal/core"
	"rms/internal/dataset"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/vulcan"
)

func main() {
	var (
		variants = flag.Int("variants", 60, "chain-length variants per family (>= 8)")
		nFiles   = flag.Int("files", 16, "number of experimental data files")
		records  = flag.Int("records", 3200, "records per data file (paper: >3000)")
		outDir   = flag.String("out", "rms-assets", "output directory")
		tEnd     = flag.Float64("tend", 2.0, "cure time window")
	)
	flag.Parse()
	if err := run(*variants, *nFiles, *records, *outDir, *tEnd); err != nil {
		fmt.Fprintln(os.Stderr, "rmsgen:", err)
		os.Exit(1)
	}
}

func run(variants, nFiles, records int, outDir string, tEnd float64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	net, err := vulcan.Network(variants)
	if err != nil {
		return err
	}
	res, err := core.CompileNetwork(net, core.Config{Optimize: opt.Full()})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "model_opt.c"), []byte(codegen.EmitC(res.Optimized, "ode_fcn")), 0o644); err != nil {
		return err
	}
	rawNet, err := vulcan.Network(variants)
	if err != nil {
		return err
	}
	rawRes, err := core.CompileNetwork(rawNet, core.Config{Optimize: opt.LevelNone})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "model_raw.c"), []byte(codegen.EmitC(rawRes.Optimized, "ode_fcn")), 0o644); err != nil {
		return err
	}
	fmt.Println(res.Report())

	// Solve the ground-truth model once and sample the crosslink curve.
	k, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		return err
	}
	prop := vulcan.CrosslinkProperty(res.System)
	curve, err := sampleCurve(res.Tape, res.System.Y0, k, prop, tEnd, 512)
	if err != nil {
		return err
	}
	for i := 0; i < nFiles; i++ {
		// Record counts ramp across files so per-file solve costs differ —
		// the imbalance the dynamic load balancer exploits (§5.4).
		n := records/2 + (3*records*i)/(2*maxInt(nFiles-1, 1))
		if n < 64 {
			n = 64
		}
		f := dataset.Synthesize(curve, dataset.SynthesizeOptions{
			Name:    fmt.Sprintf("exp%02d.dat", i+1),
			Records: n,
			T0:      0, T1: tEnd,
			Noise: 1e-4,
			Seed:  int64(i + 1),
		})
		if err := f.WriteFile(filepath.Join(outDir, f.Name)); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d data files and 2 C files to %s\n", nFiles, outDir)
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// sampleCurve integrates the model once on a fine grid and returns an
// interpolating property function.
func sampleCurve(prog *codegen.Program, y0, k []float64,
	prop func([]float64) float64, tEnd float64, samples int) (dataset.PropertyFunc, error) {

	ev := prog.NewEvaluator()
	rhs := func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }
	solver := ode.NewBDF(rhs, len(y0), ode.Options{RTol: 1e-9, ATol: 1e-12})
	y := append([]float64(nil), y0...)
	ts := make([]float64, samples+1)
	vs := make([]float64, samples+1)
	vs[0] = prop(y)
	for i := 1; i <= samples; i++ {
		t0 := tEnd * float64(i-1) / float64(samples)
		t1 := tEnd * float64(i) / float64(samples)
		if err := solver.Integrate(t0, t1, y); err != nil {
			return nil, err
		}
		ts[i] = t1
		vs[i] = prop(y)
	}
	return func(t float64) float64 {
		if t <= 0 {
			return vs[0]
		}
		if t >= tEnd {
			return vs[samples]
		}
		x := t / tEnd * float64(samples)
		i := int(x)
		frac := x - float64(i)
		return vs[i]*(1-frac) + vs[i+1]*frac
	}, nil
}
