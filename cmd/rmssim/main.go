// Command rmssim compiles a reaction model and integrates it, writing
// the concentration trajectories as CSV — the standalone face of the
// pipeline's ODE-solver stage.
//
// Usage:
//
//	rmssim -rcip rates.rcip -tend 3 -points 200 model.rdl > traj.csv
//
//	-rcip file    rate-constant values (required: every rate needs a value)
//	-tend T       integration horizon (default 1)
//	-points N     output rows (default 100)
//	-solver s     adams-gear | runge-kutta (default adams-gear)
//	-rtol/-atol   tolerances (defaults 1e-8 / 1e-11)
//
// Observability (summaries go to stderr; stdout stays clean CSV):
//
//	-trace f, -metrics, -pprof addr, -cpuprofile f
//	-listen addr  serve the introspection endpoints (/metrics, /healthz,
//	              /debug/vars, /debug/trace, /debug/events, /progress)
//	-log level    echo structured events at or above level to stderr
//	-logjson      JSON log lines instead of text
//
// Robustness:
//
//	-checkpoint f      snapshot {row, y} after every output row
//	-resume            continue from the -checkpoint file (rows already
//	                   emitted are skipped; concatenate the outputs)
//	-deadline d        stop integrating after d; SIGINT stops the same
//	                   way — both leave the checkpoint resumable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"rms/internal/budget"
	"rms/internal/checkpoint"
	"rms/internal/introspect"
	"rms/internal/service"
	"rms/internal/telemetry"
)

// simOpts bundles the simulation configuration; checkpoint/resume/
// deadline and the injectable interrupt channel are the robustness
// layer.
type simOpts struct {
	rcipPath       string
	tEnd           float64
	points         int
	solver         string
	rtol, atol     float64
	args           []string
	obs            telemetry.CLI
	checkpointPath string
	resume         bool
	deadline       time.Duration
	interrupt      <-chan os.Signal
}

// simKind tags rmssim checkpoints in the envelope.
const simKind = "rms-sim"

// simState is the trajectory checkpoint: the last completed output row
// and the state vector there. The grid parameters travel along so a
// resume under different -points/-tend/-solver is rejected instead of
// silently continuing on a different grid.
type simState struct {
	Points int       `json:"points"`
	TEnd   float64   `json:"tend"`
	Solver string    `json:"solver"`
	Row    int       `json:"row"`
	Y      []float64 `json:"y"`
}

func main() {
	var (
		rcipPath = flag.String("rcip", "", "rate-constant information file")
		tEnd     = flag.Float64("tend", 1, "integration horizon")
		points   = flag.Int("points", 100, "number of output rows")
		solver   = flag.String("solver", "adams-gear", "adams-gear | runge-kutta")
		rtol     = flag.Float64("rtol", 1e-8, "relative tolerance")
		atol     = flag.Float64("atol", 1e-11, "absolute tolerance")
		trace    = flag.String("trace", "", "write a Chrome trace-event file; summary on stderr")
		metrics  = flag.Bool("metrics", false, "print solver metrics on stderr")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		ckpt     = flag.String("checkpoint", "", "write a resumable snapshot to this file after every output row")
		resume   = flag.Bool("resume", false, "resume the trajectory from the -checkpoint file")
		deadline = flag.Duration("deadline", 0, "stop integrating after this long (0 = no deadline)")
		listen   = flag.String("listen", "", "serve the introspection debug endpoints on this address (e.g. :6161)")
		logLvl   = flag.String("log", "", "echo structured events at or above this level (debug|info|warn|error) to stderr")
		logJSON  = flag.Bool("logjson", false, "emit log lines as JSON instead of text")
	)
	flag.Parse()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	o := simOpts{
		rcipPath: *rcipPath, tEnd: *tEnd, points: *points, solver: *solver,
		rtol: *rtol, atol: *atol, args: flag.Args(),
		obs: telemetry.CLI{TracePath: *trace, Metrics: *metrics, PprofAddr: *pprof,
			CPUProfile: *cpuProf, Out: os.Stderr,
			Listen: *listen, LogLevel: *logLvl, LogJSON: *logJSON},
		checkpointPath: *ckpt, resume: *resume, deadline: *deadline,
		interrupt: sig,
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "rmssim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o simOpts) error {
	rcipPath, tEnd, points := o.rcipPath, o.tEnd, o.points
	solverName, rtol, atol, args, obs := o.solver, o.rtol, o.atol, o.args, o.obs
	if o.resume && o.checkpointPath == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	ins, finish, err := obs.Setup()
	if err != nil {
		return err
	}
	tracer, reg := ins.Tracer, ins.Registry
	lane := tracer.Lane("main")
	log := ins.Log.Scope("rmssim")
	checkpoint.SetLogger(ins.Log.Scope("checkpoint"))

	if len(args) != 1 {
		return fmt.Errorf("expected one model file, got %d", len(args))
	}
	if points < 2 {
		return fmt.Errorf("need at least 2 output points, got %d", points)
	}
	if tEnd <= 0 {
		return fmt.Errorf("tend must be positive, got %g", tEnd)
	}

	bud := budget.New().WithLogger(ins.Log.Scope("budget"))
	if o.deadline > 0 {
		bud = bud.WithDeadline(o.deadline)
	}
	defer bud.Cancel("run finished")
	if obs.Listen != "" {
		dbg := &introspect.Server{Program: "rmssim", Registry: reg,
			Tracer: tracer, Recorder: ins.Recorder, Budget: bud}
		addr, err := dbg.Start(obs.Listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rmssim: introspection on http://%s\n", addr)
		defer dbg.Close()
	}
	bud.CancelOn(o.interrupt, func() {
		fmt.Fprintln(os.Stderr, "rmssim: interrupt — stopping at the next output row")
	})
	src, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	spec := service.ModelSpec{Kind: service.KindRDL, Source: string(src)}
	if rcipPath != "" {
		b, err := os.ReadFile(rcipPath)
		if err != nil {
			return err
		}
		spec.RCIP = string(b)
	}
	// The shared engine is the single compile + simulate code path: the
	// rmsd server runs exactly this with a long-lived cache; here the
	// cache spans one trajectory.
	eng := service.NewEngine(reg, ins.Log)
	lane.Begin("compile")
	cm, _, err := eng.Compile(spec, lane)
	lane.End()
	if err != nil {
		return err
	}

	req := service.SimulateRequest{
		TEnd: tEnd, Points: points, Solver: solverName, RTol: rtol, ATol: atol,
	}
	if o.resume {
		var st simState
		if err := checkpoint.Load(o.checkpointPath, simKind, &st); err != nil {
			return err
		}
		if st.Points != points || st.TEnd != tEnd || st.Solver != solverName {
			return fmt.Errorf("checkpoint was taken on a different grid (points=%d tend=%g solver=%s)",
				st.Points, st.TEnd, st.Solver)
		}
		if len(st.Y) != len(cm.Res.System.Y0) {
			return fmt.Errorf("checkpoint has %d species, model has %d", len(st.Y), len(cm.Res.System.Y0))
		}
		req.StartRow, req.Y = st.Row, st.Y
		// Header and rows up to st.Row were already emitted by the
		// interrupted run; the resumed output concatenates after them.
	} else {
		fmt.Fprintf(w, "t,%s\n", strings.Join(cm.Res.System.Species, ","))
	}
	lane.Begin("integrate")
	log.Info("start", "integration started", "solver", solverName,
		"points", points, "tend", tEnd, "from_row", req.StartRow+1)
	res, err := service.RunSimulate(cm, req, service.SimOpts{
		Budget: bud, Registry: reg, Log: ins.Log.Scope("ode"),
		Row: func(row int, t float64, y []float64) error {
			writeRow(w, t, y)
			if row > 0 {
				log.Debug("row", "output row", "row", row, "t", t)
			}
			if o.checkpointPath != "" && row > 0 {
				st := simState{Points: points, TEnd: tEnd, Solver: solverName,
					Row: row, Y: append([]float64(nil), y...)}
				return checkpoint.Save(o.checkpointPath, simKind, st)
			}
			return nil
		},
	})
	lane.End()
	if err != nil {
		if budget.Exhausted(err) && res != nil {
			fmt.Fprintf(os.Stderr, "rmssim: stopped at row %d/%d: %v\n", res.Row, points-1, err)
			if o.checkpointPath != "" {
				fmt.Fprintf(os.Stderr, "rmssim: checkpoint at %s — continue with -resume\n", o.checkpointPath)
			}
			return finish()
		}
		return err
	}
	return finish()
}

func writeRow(w io.Writer, t float64, y []float64) {
	fmt.Fprintf(w, "%.8g", t)
	for _, v := range y {
		fmt.Fprintf(w, ",%.8g", v)
	}
	fmt.Fprintln(w)
}
