package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rms/internal/core"
	"rms/internal/linalg"
	"rms/internal/network"
	"rms/internal/opt"
	"rms/internal/service"
	"rms/internal/telemetry"
)

// compileRounds is how many rounds of 16 compiles the traced run makes.
const compileRounds = 2

// checkTol bounds the relative disagreement between an optimized and an
// optimize: none compile of one source: the optimizer reassociates sums
// and products, so the two agree to rounding, not bit for bit.
const checkTol = 1e-9

// fingerprint is a compiled model evaluated at a fixed state and rate
// vector: the RHS followed by the dense Jacobian.
func fingerprint(cm *service.CompiledModel, y, k []float64) []float64 {
	n := len(y)
	dy := make([]float64, n)
	cm.Res.Tape.NewEvaluator().Eval(y, k, dy)
	jac := linalg.NewMatrix(n, n)
	cm.Res.Jacobian.NewEvaluator().Eval(y, k, jac)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dy = append(dy, jac.At(i, j))
		}
	}
	return dy
}

// checkPoint draws the seeded state and rate vector the compile checks
// evaluate a model at.
func checkPoint(cm *service.CompiledModel, seed int64) (y, k []float64) {
	rng := rand.New(rand.NewSource(seed))
	for range cm.Res.System.Y0 {
		y = append(y, 0.1+rng.Float64())
	}
	for range cm.Res.System.Rates {
		k = append(k, 0.1+2*rng.Float64())
	}
	return y, k
}

// compileRef is the per-source reference every compile of that source
// must reproduce bit for bit.
type compileRef struct {
	y, k, fp []float64
}

// newCompileRef compiles spec once with optimize: none and checks that
// cm, the optimized model, agrees with it within checkTol.
func newCompileRef(eng *service.Engine, spec service.ModelSpec, cm *service.CompiledModel, seed int64, r *report) *compileRef {
	y, k := checkPoint(cm, seed)
	ref := &compileRef{y: y, k: k, fp: fingerprint(cm, y, k)}
	plain := spec
	plain.Optimize = "none"
	pm, err := eng.BuildUncached(plain)
	if err != nil {
		r.fail("optimize none compile: %v", err)
		return ref
	}
	want := fingerprint(pm, y, k)
	if len(want) != len(ref.fp) {
		r.fail("optimize none compile has %d outputs, optimized %d", len(want), len(ref.fp))
		return ref
	}
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if d := math.Abs(want[i] - ref.fp[i]); d > checkTol*math.Max(scale, 1) {
			r.fail("optimized and unoptimized compiles differ at output %d: %g vs %g", i, ref.fp[i], want[i])
			break
		}
	}
	return ref
}

// check compares a compile against its source's reference.
func (c *compileRef) check(cm *service.CompiledModel, r *report) {
	if !sameBits([][]float64{c.fp}, [][]float64{fingerprint(cm, c.y, c.k)}) {
		r.fail("a repeated compile of one source produced a different model")
	}
}

// runCompile is the compile workload: one client in a closed loop
// running uncached compiles (rmsd's cache-miss path, and what
// rmsrun/rmssim run at every start) over a seeded mix of generated RDL
// programs and vulcanization networks as network text.
func runCompile(o opts, r *report) error {
	specs, err := compileRound(o.seed)
	if err != nil {
		return err
	}
	eng := service.NewEngine(nil, nil)
	refs := make([]*compileRef, len(specs))

	// Set-up: one cold compile of every source in the list (the first
	// repetition is the process's cold one). All 16 rather than one per
	// kind, so that the set-up's cost does not hinge on which sources
	// the seed made largest.
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		for _, s := range specs {
			if _, err := eng.BuildUncached(s); err != nil {
				return fmt.Errorf("set-up compile: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if o.trace {
		return traceCompile(o, r, eng, specs, refs)
	}

	var all, rdl, net []float64
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		for i, s := range specs {
			t0 := time.Now()
			cm, err := eng.BuildUncached(s)
			d := float64(time.Since(t0)) / 1e6
			r.op(err)
			if err != nil {
				continue
			}
			all = append(all, d)
			if s.Kind == service.KindRDL {
				rdl = append(rdl, d)
			} else {
				net = append(net, d)
			}
			if refs[i] == nil {
				refs[i] = newCompileRef(eng, s, cm, o.seed+int64(i), r)
			} else {
				refs[i].check(cm, r)
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	r.metric("setup_s", median(setups), "s", len(setups))
	r.metric("peak_rss_mb", peakRSSMB(), "MB", 1)
	r.metric("latency_p50_ms", median(all), "ms", len(all))
	r.metric("capacity_rps", float64(len(all))/elapsed, "1/s", len(all))
	r.info("rdl_compile_ms", median(rdl), "ms", len(rdl))
	r.info("net_compile_ms", median(net), "ms", len(net))
	r.info("compile_p90_ms", percentile(all, 0.9), "ms", len(all))
	return nil
}

// tracedBuild runs the steps of service.Engine's uncached build one
// public call at a time — the front end, core.CompileNetwork with its
// phase spans on a Config.Trace lane, the Jacobian pattern and the
// symbolic LU — and returns the model and each layer's time.
func tracedBuild(spec service.ModelSpec, l *layers) (*service.CompiledModel, time.Duration, error) {
	tr := telemetry.NewTracer()
	cfg := core.Config{Optimize: opt.Full(), AnalyticJacobian: true, Trace: tr.Lane("compile")}
	t0 := time.Now()
	var res *core.Result
	var err error
	var parse time.Duration
	if spec.Kind == service.KindRDL {
		res, err = core.CompileRDL(spec.Source, cfg)
	} else {
		var net *network.Network
		net, err = network.ParseText(spec.Source)
		parse = time.Since(t0)
		if err == nil {
			res, err = core.CompileNetwork(net, cfg)
		}
	}
	if err != nil {
		return nil, 0, err
	}
	tp := time.Now()
	pattern := res.Jacobian.PatternCSR()
	tl := time.Now()
	lu, err := linalg.NewSparseLU(pattern)
	if err != nil {
		lu = nil // as in the engine: no pivot-free LU, solvers use dense
	}
	te := time.Now()
	wall := te.Sub(t0)

	sp, err := spans(tr)
	if err != nil {
		return nil, 0, err
	}
	layerOf := map[string]string{
		"parse":                "rdl.parse_ms",
		"network generation":   "network.generate_ms",
		"equation generation":  "eqgen.generate_ms",
		"optimize":             "opt.optimize_ms",
		"codegen":              "codegen.tape_ms",
		"emit C":               "codegen.tape_ms",
		"jacobian compilation": "codegen.jacobian_ms",
	}
	attributed := parse + tl.Sub(tp) + te.Sub(tl)
	for _, s := range sp {
		name, ok := layerOf[s.Name]
		if !ok {
			return nil, 0, fmt.Errorf("unexpected compiler phase %q", s.Name)
		}
		l.add(name, ms(s.Dur))
		attributed += s.Dur
	}
	l.add("network.parse_ms", ms(parse))
	l.add("codegen.jacobian_ms", ms(tl.Sub(tp)))
	l.add("linalg.symbolic_lu_ms", ms(te.Sub(tl)))
	l.add("unattributed_ms", ms(wall-attributed))
	cm := &service.CompiledModel{Spec: spec, Res: res, Pattern: pattern, LU: lu}
	return cm, wall, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// modelCounts adds the compiled-model counts of the ledger.
func modelCounts(cm *service.CompiledModel, l *layers) {
	rep := cm.Res.Report()
	l.add("network.reactions", float64(len(cm.Res.Network.Reactions)))
	l.add("opt.kept_ops_ratio", float64(rep.OptMuls+rep.OptAdds)/float64(rep.RawMuls+rep.RawAdds))
	l.add("codegen.jacobian_nnz", float64(cm.Pattern.NNZ()))
}

// traceCompile is the compile workload's traced run: compileRounds
// rounds, each compile once untraced and once traced, the difference
// being the tracing overhead.
func traceCompile(o opts, r *report, eng *service.Engine, specs []service.ModelSpec, refs []*compileRef) error {
	l := newLayers()
	var untraced, traced, worst float64
	g0 := readGo()
	var alloc float64
	for round := 0; round < compileRounds; round++ {
		for i, s := range specs {
			a0 := readGo().allocBytes
			t0 := time.Now()
			cm, err := eng.BuildUncached(s)
			untraced += ms(time.Since(t0))
			alloc += readGo().allocBytes - a0
			r.op(err)
			if err != nil {
				continue
			}
			if refs[i] == nil {
				refs[i] = newCompileRef(eng, s, cm, o.seed+int64(i), r)
			}
			before := l.sum["unattributed_ms"]
			tm, wall, err := tracedBuild(s, l)
			if err != nil {
				r.fail("traced compile: %v", err)
				continue
			}
			traced += ms(wall)
			l.add("wall_ms", ms(wall))
			worst = math.Max(worst, (l.sum["unattributed_ms"]-before)/ms(wall))
			refs[i].check(tm, r)
			modelCounts(tm, l)
			l.ops++
		}
	}
	g1 := readGo()
	if worst > 0.05 {
		r.fail("compile ledger: an operation's layers leave %.1f%% of its traced time unattributed", 100*worst)
	}
	n := float64(l.ops)
	l.emit(r, map[string]float64{
		"go.alloc_mb_per_op": alloc / 1e6 / n,
		"go.gc_cpu_share":    (g1.gcCPU - g0.gcCPU) / math.Max(g1.totalCPU-g0.totalCPU, 1e-9),
		"trace.overhead_ms":  (traced - untraced) / n,
		"unattributed_share": l.sum["unattributed_ms"] / l.sum["wall_ms"],
	})
	return nil
}
