// Command rmsrun runs the parallel parameter estimator: it rebuilds the
// vulcanization model at the requested size, loads the experimental data
// files produced by rmsgen, and fits the kinetic rate constants within
// the chemist's bounds, reporting fitted values against the ground truth
// and the parallel-runtime statistics.
//
// Usage:
//
//	rmsrun -variants 60 -data ./rms-assets -ranks 4 -lb
//
// Observability:
//
//	-trace out.json    Chrome trace (one lane per MPI rank) + text summary
//	-metrics           print the telemetry registry after the fit
//	-listen addr       serve the live introspection endpoints (/metrics,
//	                   /healthz, /debug/vars, /debug/trace, /progress)
//	-log level         mirror flight-recorder events at this level to stderr
//	-logjson           sink mirrored events as JSON lines instead of text
//	-pprof addr        serve net/http/pprof on addr (e.g. localhost:6060)
//	-cpuprofile f      write a CPU profile to f
//
// Robustness:
//
//	-checkpoint f      write a resumable snapshot at every LM iteration
//	-resume            continue a fit from the -checkpoint file
//	-deadline d        cancel the fit after d (e.g. 10m); with -checkpoint
//	                   the run stops resumable instead of dying mid-fit.
//	                   SIGINT does the same: the current iteration finishes,
//	                   the checkpoint holds the last boundary, and a later
//	                   -resume run continues bit-identically.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"time"

	"rms/internal/budget"
	"rms/internal/checkpoint"
	"rms/internal/dataset"
	"rms/internal/estimator"
	"rms/internal/introspect"
	"rms/internal/nlopt"
	"rms/internal/service"
	"rms/internal/stats"
	"rms/internal/telemetry"
	"rms/internal/vulcan"
)

// runOpts bundles the fit configuration; the checkpoint/resume/deadline
// fields and the injectable interrupt channel are the robustness layer.
type runOpts struct {
	variants, ranks, maxIter, free int
	dataDir                        string
	lb                             bool
	obs                            telemetry.CLI
	// checkpointPath enables iteration-boundary snapshots; resume loads
	// one before fitting. deadline (0 = none) bounds the whole fit.
	checkpointPath string
	resume         bool
	deadline       time.Duration
	// interrupt delivers SIGINT (or, in tests, a synthetic signal); a
	// receipt cancels the fit's budget so the run stops at the next
	// cooperative check with the checkpoint intact.
	interrupt <-chan os.Signal
}

func main() {
	var (
		variants = flag.Int("variants", 60, "chain-length variants per family")
		dataDir  = flag.String("data", "rms-assets", "directory of experimental data files")
		ranks    = flag.Int("ranks", 4, "number of simulated MPI ranks")
		lb       = flag.Bool("lb", true, "enable dynamic load balancing (sched policy lpt)")
		maxIter  = flag.Int("maxiter", 30, "Levenberg-Marquardt iteration cap")
		free     = flag.Int("free", 3, "number of rate constants left free to fit (rest pinned to truth)")
		trace    = flag.String("trace", "", "write a Chrome trace-event file and print the span summary")
		metrics  = flag.Bool("metrics", false, "print the telemetry metrics registry after the fit")
		listen   = flag.String("listen", "", "serve the live introspection endpoints on this address (e.g. localhost:6060 or :0)")
		logLvl   = flag.String("log", "", "mirror flight-recorder events at this level (debug|info|warn|error) to stderr")
		logJSON  = flag.Bool("logjson", false, "sink mirrored events as JSON lines")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		ckpt     = flag.String("checkpoint", "", "write a resumable snapshot to this file at every LM iteration boundary")
		resume   = flag.Bool("resume", false, "resume the fit from the -checkpoint file")
		deadline = flag.Duration("deadline", 0, "cancel the fit after this long (0 = no deadline)")
	)
	flag.Parse()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	o := runOpts{
		variants: *variants, ranks: *ranks, maxIter: *maxIter, free: *free,
		dataDir: *dataDir, lb: *lb,
		obs: telemetry.CLI{TracePath: *trace, Metrics: *metrics, PprofAddr: *pprof,
			CPUProfile: *cpuProf, Listen: *listen, LogLevel: *logLvl, LogJSON: *logJSON},
		checkpointPath: *ckpt, resume: *resume, deadline: *deadline,
		interrupt: sig,
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "rmsrun:", err)
		os.Exit(1)
	}
}

func run(o runOpts) error {
	variants, dataDir, ranks := o.variants, o.dataDir, o.ranks
	lb, maxIter, free, obs := o.lb, o.maxIter, o.free, o.obs
	if o.resume && o.checkpointPath == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	ins, finish, err := obs.Setup()
	if err != nil {
		return err
	}
	tracer, reg := ins.Tracer, ins.Registry
	mainLane := tracer.Lane("main") // nil tracer → nil lane, all no-ops
	log := ins.Log.Scope("rmsrun")
	checkpoint.SetLogger(ins.Log.Scope("checkpoint"))

	// The fit budget: a deadline if requested, cancelled early by SIGINT.
	// Both stop the run at the next cooperative check; with -checkpoint
	// the snapshot from the last completed iteration stays resumable.
	bud := budget.New().WithLogger(ins.Log.Scope("budget"))
	if o.deadline > 0 {
		bud = bud.WithDeadline(o.deadline)
	}
	defer bud.Cancel("run finished")
	if obs.Listen != "" {
		srv := &introspect.Server{Program: "rmsrun", Registry: reg,
			Tracer: tracer, Recorder: ins.Recorder, Budget: bud}
		addr, err := srv.Start(obs.Listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rmsrun: introspection on http://%s\n", addr)
	}
	bud.CancelOn(o.interrupt, func() {
		fmt.Fprintln(os.Stderr, "rmsrun: interrupt — stopping at the next iteration boundary")
	})

	mainLane.Begin("load data")
	paths, err := filepath.Glob(filepath.Join(dataDir, "exp*.dat"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no exp*.dat files in %s (run rmsgen first)", dataDir)
	}
	sort.Strings(paths)
	var files []*dataset.File
	for _, p := range paths {
		f, err := dataset.ReadFile(p)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	mainLane.End()
	fmt.Printf("loaded %d data files (%d..%d records)\n",
		len(files), files[0].NumRecords(), files[len(files)-1].NumRecords())

	// The shared engine is the single compile + fit code path: the rmsd
	// server runs exactly this with a long-lived cache; here the cache
	// spans one fit.
	eng := service.NewEngine(reg, ins.Log)
	mainLane.Begin("compile")
	cm, _, err := eng.Compile(service.ModelSpec{
		Kind: service.KindVulcan, Variants: variants,
	}, mainLane)
	mainLane.End()
	if err != nil {
		return err
	}
	res := cm.Res
	fmt.Println(res.Report())

	// Bounds: the first `free` constants (sorted order) float within a
	// decade of truth; the rest stay pinned, mirroring a chemist fixing
	// well-known constants and fitting the uncertain ones.
	n := len(res.System.Rates)
	lower := make([]float64, n)
	upper := make([]float64, n)
	start := make([]float64, n)
	for i, name := range res.System.Rates {
		truth := vulcan.TrueRates[name]
		if i < free {
			lower[i], upper[i] = truth/10, truth*10
			start[i] = truth / 3
		} else {
			lower[i], upper[i], start[i] = truth, truth, truth
		}
	}
	req := service.FitRequest{
		Data:     service.FromDataset(files),
		Property: "crosslink", RTol: 1e-9, ATol: 1e-12,
		Ranks: ranks, LoadBalance: lb,
		MaxIter: maxIter, RelStep: 1e-4,
		Start: start, Lower: lower, Upper: upper,
	}
	fo := service.FitOpts{
		Budget: bud, Tracer: tracer, Registry: reg, Log: ins.Log,
		Observer: service.ObserveLM(reg, log),
	}
	if o.checkpointPath != "" {
		fo.Checkpoint = func(cs nlopt.CheckState, est *estimator.Estimator) error {
			return checkpoint.Save(o.checkpointPath, service.RunKind, service.RunState{
				Opt: cs, Est: est.Snapshot(),
			})
		}
	}
	if o.resume {
		var st service.RunState
		if err := checkpoint.Load(o.checkpointPath, service.RunKind, &st); err != nil {
			return err
		}
		fo.Resume = &st
		fmt.Printf("resumed from %s: iteration %d, %d objective calls done\n",
			o.checkpointPath, st.Opt.Iter, st.Est.Calls)
	}
	mainLane.Begin("estimate")
	out, err := service.RunFit(cm, req, fo)
	mainLane.End()
	if err != nil {
		if budget.Exhausted(err) {
			fmt.Printf("fit stopped early: %v\n", err)
			if o.checkpointPath != "" {
				fmt.Printf("checkpoint at %s — continue with -resume\n", o.checkpointPath)
			}
			return finish()
		}
		return err
	}
	fit, est := out.Fit, out.Est
	fmt.Printf("converged=%v iterations=%d rnorm=%.3g objective calls=%d\n",
		fit.Converged, fit.Iterations, fit.RNorm, est.Calls())
	fmt.Printf("wall %.2fs, modeled parallel work %.4g ops over %d ranks (lb=%v)\n",
		est.WallSeconds(), est.ModeledOps(), ranks, lb)
	fmt.Println("rate constant   fitted     true")
	for i, name := range res.System.Rates {
		marker := ""
		if i < free {
			marker = "  (fitted)"
		}
		fmt.Printf("%-14s %8.4f %8.4f%s\n", name, fit.X[i], vulcan.TrueRates[name], marker)
	}
	// The Fig. 1 statistical-analysis step.
	mainLane.Begin("analyze")
	good, ivs, err := est.Analyze(fit)
	mainLane.End()
	if err != nil {
		return err
	}
	fmt.Println("goodness of fit:", good)
	fmt.Print(stats.FormatIntervals(res.System.Rates, ivs))
	return finish()
}
