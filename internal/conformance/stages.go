package conformance

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"rms/internal/ccomp"
	"rms/internal/checkpoint"
	"rms/internal/codegen"
	"rms/internal/dataset"
	"rms/internal/eqgen"
	"rms/internal/estimator"
	"rms/internal/linalg"
	"rms/internal/network"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/rdl"
	"rms/internal/sched"
)

// Stage is one boundary of the pipeline under differential or
// metamorphic test. Run records divergences in rec; a returned error
// means the stage infrastructure itself broke (compile failure, solver
// blow-up on a healthy model), which aborts the harness rather than
// counting as a divergence.
type Stage struct {
	Name string
	Desc string
	// Shrinkable stages re-run on candidate sub-networks during delta
	// debugging; stages that ignore the case network (rdl) opt out.
	Shrinkable bool
	Run        func(cs *Case, rec *Recorder, tol float64) error
}

// Stages is the full conformance matrix in execution order.
var Stages = []Stage{
	{"simplify", "raw duplicated terms vs §3.1 simplified evaluation", true, stageSimplify},
	{"distribute", "simplified vs §3.2 distributive-factored evaluation", true, stageDistribute},
	{"cse", "factored vs §3.3 CSE evaluation", true, stageCSE},
	{"hoist", "CSE vs hoisted-prelude evaluation", true, stageHoist},
	{"tape", "optimized tree vs compiled tape (and prelude k-swap reuse)", true, stageTape},
	{"jacobian", "analytic Jacobian vs finite differences; dense vs CSR", true, stageJacobian},
	{"newton", "dense vs sparse Newton trajectories (stiff solver)", true, stageNewton},
	{"ccomp", "Go tape vs generated-C kernel recompiled at -O0 and -O4", true, stageCComp},
	{"estimator", "single-rank vs multi-rank estimator residuals", true, stageEstimator},
	{"resume", "checkpoint/resume bit-identity on serial and lpt paths", true, stageResume},
	{"permute", "species-permutation invariance of compiled evaluation", true, stagePermute},
	{"scalek", "rate-constant/time rescaling equivalence", true, stageScaleK},
	{"conserve", "conservation-law residuals of dy and of trajectories", true, stageConserve},
	{"rdl", "RDL parse→format→reparse network and pipeline equivalence", false, stageRDL},
	{"service", "HTTP service vs direct engine vs inline pipeline (exact)", true, stageService},
}

// StageNames returns the stage names in matrix order.
func StageNames() []string {
	names := make([]string, len(Stages))
	for i, s := range Stages {
		names[i] = s.Name
	}
	return names
}

// SelectStages resolves a comma-separated stage list ("" or "all" means
// the full matrix) against the stage table.
func SelectStages(spec string) ([]Stage, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "all" {
		return Stages, nil
	}
	byName := make(map[string]Stage, len(Stages))
	for _, s := range Stages {
		byName[s.Name] = s
	}
	var out []Stage
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("conformance: unknown stage %q (have %s)",
				name, strings.Join(StageNames(), ", "))
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("conformance: empty stage selection %q", spec)
	}
	return out, nil
}

// --- Optimizer ladder: differential checks between tree interpreters ---

func stageSimplify(cs *Case, rec *Recorder, tol float64) error {
	rec.CheckVec("dy raw-vs-simplify", cs.Raw.Eval(cs.Y, cs.KMap), cs.Simp.Eval(cs.Y, cs.KMap), tol)
	return nil
}

func stageDistribute(cs *Case, rec *Recorder, tol float64) error {
	rec.CheckVec("dy simplify-vs-distribute", cs.Simp.Eval(cs.Y, cs.KMap), cs.Dist.Eval(cs.Y, cs.KMap), tol)
	return nil
}

func stageCSE(cs *Case, rec *Recorder, tol float64) error {
	rec.CheckVec("dy distribute-vs-cse", cs.Dist.Eval(cs.Y, cs.KMap), cs.CSE.Eval(cs.Y, cs.KMap), tol)
	return nil
}

func stageHoist(cs *Case, rec *Recorder, tol float64) error {
	rec.CheckVec("dy cse-vs-hoist", cs.CSE.Eval(cs.Y, cs.KMap), cs.Full.Eval(cs.Y, cs.KMap), tol)
	return nil
}

// --- Tape layer ---

// stageTape checks the compiled tape against the optimized tree it was
// compiled from — the two follow the same canonical operand order, so
// agreement is exact — and that the hoisted prelude is correctly rerun
// when k changes away and back.
func stageTape(cs *Case, rec *Recorder, _ float64) error {
	ref := cs.Full.Eval(cs.Y, cs.KMap)
	ev := cs.Tape.NewEvaluator()
	dy := make([]float64, len(cs.Y))
	ev.Eval(cs.Y, cs.K, dy)
	rec.CheckVec("dy tree-vs-tape", ref, dy, -1)

	// Prelude staleness: evaluate at 2k, then back at k; the cached
	// prelude must be refreshed, reproducing the first answer exactly.
	k2 := make([]float64, len(cs.K))
	for i, v := range cs.K {
		k2[i] = 2 * v
	}
	scratch := make([]float64, len(cs.Y))
	ev.Eval(cs.Y, k2, scratch)
	ev.Eval(cs.Y, cs.K, scratch)
	rec.CheckVec("dy prelude-kswap", dy, scratch, -1)
	return nil
}

// --- Jacobian and solver layers ---

func stageJacobian(cs *Case, rec *Recorder, _ float64) error {
	n := len(cs.Y)
	je := cs.Jac.NewEvaluator()
	dense := linalg.NewMatrix(n, n)
	je.Eval(cs.Y, cs.K, dense)

	// CSR entries must equal the dense entries bit-for-bit (same tape,
	// different destination layout).
	csr := cs.Jac.PatternCSR()
	cs.Jac.NewEvaluator().EvalCSR(cs.Y, cs.K, csr)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := csr.At(i, j)
			if csr.Index(i, j) < 0 && dense.At(i, j) != 0 {
				rec.Failf("J[%d,%d]: dense %v outside sparse pattern", i, j, dense.At(i, j))
				continue
			}
			rec.CheckExact(fmt.Sprintf("J[%d,%d] dense-vs-csr", i, j), dense.At(i, j), got)
		}
	}

	// Analytic vs central finite difference of the compiled tape.
	ev := cs.Tape.NewEvaluator()
	fp, fm, yh := make([]float64, n), make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		h := 1e-6 * math.Max(1, math.Abs(cs.Y[j]))
		copy(yh, cs.Y)
		yh[j] = cs.Y[j] + h
		ev.Eval(yh, cs.K, fp)
		yh[j] = cs.Y[j] - h
		ev.Eval(yh, cs.K, fm)
		for i := 0; i < n; i++ {
			fd := (fp[i] - fm[i]) / (2 * h)
			rec.CheckTol(fmt.Sprintf("J[%d,%d] analytic-vs-fd", i, j), fd, dense.At(i, j), 1e-5)
		}
	}
	return nil
}

func stageNewton(cs *Case, rec *Recorder, _ float64) error {
	n := len(cs.Y)
	ev := cs.Tape.NewEvaluator()
	rhs := func(_ float64, y, dy []float64) { ev.Eval(y, cs.K, dy) }
	je := cs.Jac.NewEvaluator()
	base := ode.Options{
		RTol: 1e-8, ATol: 1e-11,
		Jacobian: func(_ float64, y []float64, dst *linalg.Matrix) { je.Eval(y, cs.K, dst) },
	}
	yDense := append([]float64(nil), cs.Y...)
	sd := ode.NewBDF(rhs, n, base)
	if err := sd.Integrate(0, 1.0, yDense); err != nil {
		return fmt.Errorf("dense newton: %w", err)
	}
	if sd.Sparse() {
		rec.Failf("dense-configured solver took the sparse path")
	}

	sparse := base
	sparse.SparsePattern = cs.Jac.PatternCSR()
	sparse.SparseJacobian = func(_ float64, y []float64, dst *linalg.CSR) { je.EvalCSR(y, cs.K, dst) }
	sparse.SparseMinDim = 2
	sparse.SparseThreshold = 1
	ySparse := append([]float64(nil), cs.Y...)
	ss := ode.NewBDF(rhs, n, sparse)
	if err := ss.Integrate(0, 1.0, ySparse); err != nil {
		return fmt.Errorf("sparse newton: %w", err)
	}
	if !ss.Sparse() {
		rec.Failf("sparse-configured solver stayed dense")
	}
	rec.CheckVec("y(1) dense-vs-sparse", yDense, ySparse, 1e-6)
	return nil
}

// --- Generated C ---

func stageCComp(cs *Case, rec *Recorder, _ float64) error {
	ref := make([]float64, len(cs.Y))
	cs.Tape.NewEvaluator().Eval(cs.Y, cs.K, ref)
	for _, level := range []int{0, 4} {
		res, err := ccomp.Compile(cs.CSrc, ccomp.Options{Level: level})
		if err != nil {
			rec.Failf("ccomp -O%d: %v", level, err)
			continue
		}
		if res.Program.NumY != cs.Tape.NumY || res.Program.NumK != cs.Tape.NumK {
			rec.Failf("ccomp -O%d shape: %dx%d vs %dx%d", level,
				res.Program.NumY, res.Program.NumK, cs.Tape.NumY, cs.Tape.NumK)
			continue
		}
		dy := make([]float64, len(cs.Y))
		res.Program.NewEvaluator().Eval(cs.Y, cs.K, dy)
		rec.CheckVec(fmt.Sprintf("dy tape-vs-ccomp-O%d", level), ref, dy, -1)
	}
	return nil
}

// --- Estimator ---

// conformanceFiles builds a small deterministic synthetic dataset for
// the estimator stage. Observations need not come from the model: rank
// invariance is about the reduction, not the fit.
func conformanceFiles(cs *Case) []*dataset.File {
	counts := []int{6, 9, 12, 7}
	files := make([]*dataset.File, len(counts))
	for fi, n := range counts {
		f := &dataset.File{Name: fmt.Sprintf("conf%d.dat", fi)}
		for j := 0; j < n; j++ {
			t := 0.4 * float64(j+1) / float64(n)
			f.Records = append(f.Records, dataset.Record{T: t, Value: 0.1 * float64(fi+j)})
		}
		files[fi] = f
	}
	return files
}

func stageEstimator(cs *Case, rec *Recorder, _ float64) error {
	prop := func(y []float64) float64 {
		s := 0.0
		for _, v := range y {
			s += v
		}
		return s
	}
	model := &estimator.Model{
		Prog: cs.Tape, Y0: cs.Sys.Y0, Property: prop,
		AnalyticJac: cs.Jac,
		SolverOpts:  ode.Options{RTol: 1e-7, ATol: 1e-10},
	}
	files := conformanceFiles(cs)
	k2 := make([]float64, len(cs.K))
	for i, v := range cs.K {
		k2[i] = 1.3 * v
	}
	// resid runs one objective call per k: the lpt run's second call is
	// on the plan re-balanced from the first call's measured costs.
	resid := func(cfg estimator.Config, ks ...[]float64) ([][]float64, error) {
		e, err := estimator.New(model, files, cfg)
		if err != nil {
			return nil, err
		}
		defer e.Close()
		var out [][]float64
		for _, k := range ks {
			r := make([]float64, e.ResidualDim())
			if err := e.Objective(k, r); err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	r1, err := resid(estimator.Config{Ranks: 1}, cs.K, k2)
	if err != nil {
		return fmt.Errorf("estimator ranks=1: %w", err)
	}
	r3, err := resid(estimator.Config{Ranks: 3}, cs.K)
	if err != nil {
		return fmt.Errorf("estimator ranks=3: %w", err)
	}
	lpt, err := resid(estimator.Config{Ranks: 3, Policy: sched.PolicyLPT}, cs.K, k2)
	if err != nil {
		return fmt.Errorf("estimator ranks=3 lpt: %w", err)
	}
	// Each residual entry is computed on exactly one rank and folded in
	// file order, so any plan reproduces the serial residual exactly.
	rec.CheckVec("residual ranks1-vs-ranks3", r1[0], r3[0], -1)
	rec.CheckVec("residual ranks1-vs-ranks3 lpt call0", r1[0], lpt[0], -1)
	rec.CheckVec("residual ranks1-vs-ranks3 lpt call1 (rebalanced)", r1[1], lpt[1], -1)
	return nil
}

// skewedFiles is conformanceFiles with one dominant file — the shape
// that makes the lpt load balancer re-plan.
func skewedFiles(cs *Case) []*dataset.File {
	counts := []int{60, 6, 9, 5, 7, 8}
	files := make([]*dataset.File, len(counts))
	for fi, n := range counts {
		f := &dataset.File{Name: fmt.Sprintf("skew%d.dat", fi)}
		for j := 0; j < n; j++ {
			t := 0.4 * float64(j+1) / float64(n)
			f.Records = append(f.Records, dataset.Record{T: t, Value: 0.1 * float64(fi+j)})
		}
		files[fi] = f
	}
	return files
}

// stageResume holds the checkpoint/resume contract to BIT-IDENTICAL
// residuals on every estimator execution path: a run interrupted at an
// objective-call boundary, snapshotted through the checkpoint envelope
// (JSON + content hash, exactly what lands on disk), and restored into a
// freshly-constructed estimator must produce the same remaining
// residual vectors as the uninterrupted run — exactly, not to a
// tolerance. Covered paths: serial single-rank and three ranks under the
// lpt load balancer (the plans and the last measured costs travel in
// the snapshot).
func stageResume(cs *Case, rec *Recorder, _ float64) error {
	prop := func(y []float64) float64 {
		s := 0.0
		for _, v := range y {
			s += v
		}
		return s
	}
	model := &estimator.Model{
		Prog: cs.Tape, Y0: cs.Sys.Y0, Property: prop,
		AnalyticJac: cs.Jac,
		SolverOpts:  ode.Options{RTol: 1e-7, ATol: 1e-10},
	}
	files := skewedFiles(cs)
	// Four-call k schedule: enough that the lpt path re-plans before and
	// after the interruption point.
	kseq := make([][]float64, 4)
	for c := range kseq {
		k := make([]float64, len(cs.K))
		for i, v := range cs.K {
			k[i] = v * (1 + 0.15*float64(c))
		}
		kseq[c] = k
	}
	variants := []struct {
		name string
		cfg  func() estimator.Config
	}{
		{"serial", func() estimator.Config { return estimator.Config{Ranks: 1} }},
		{"lpt", func() estimator.Config {
			return estimator.Config{Ranks: 3, Policy: sched.PolicyLPT}
		}},
	}
	for _, v := range variants {
		run := func(e *estimator.Estimator, from, to int) ([][]float64, error) {
			var out [][]float64
			for c := from; c < to; c++ {
				r := make([]float64, e.ResidualDim())
				if err := e.Objective(kseq[c], r); err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}
		ref, err := func() ([][]float64, error) {
			e, err := estimator.New(model, files, v.cfg())
			if err != nil {
				return nil, err
			}
			defer e.Close()
			return run(e, 0, len(kseq))
		}()
		if err != nil {
			return fmt.Errorf("resume %s reference: %w", v.name, err)
		}
		// Interrupted run: two calls, snapshot through the checkpoint
		// envelope, resume in a fresh estimator.
		const cut = 2
		st, err := func() (estimator.State, error) {
			e, err := estimator.New(model, files, v.cfg())
			if err != nil {
				return estimator.State{}, err
			}
			defer e.Close()
			if _, err := run(e, 0, cut); err != nil {
				return estimator.State{}, err
			}
			return e.Snapshot(), nil
		}()
		if err != nil {
			return fmt.Errorf("resume %s interrupted run: %w", v.name, err)
		}
		blob, err := checkpoint.Marshal("estimator", st)
		if err != nil {
			return fmt.Errorf("resume %s: %w", v.name, err)
		}
		var back estimator.State
		if err := checkpoint.Unmarshal(blob, "estimator", &back); err != nil {
			return fmt.Errorf("resume %s: %w", v.name, err)
		}
		e2, err := estimator.New(model, files, v.cfg())
		if err != nil {
			return fmt.Errorf("resume %s: %w", v.name, err)
		}
		if err := e2.Restore(back); err != nil {
			e2.Close()
			return fmt.Errorf("resume %s restore: %w", v.name, err)
		}
		got, err := run(e2, cut, len(kseq))
		e2.Close()
		if err != nil {
			return fmt.Errorf("resume %s resumed run: %w", v.name, err)
		}
		for i, r := range got {
			rec.CheckVec(fmt.Sprintf("%s resumed call%d", v.name, cut+i), ref[cut+i], r, -1)
		}
	}
	return nil
}

// --- Metamorphic properties ---

// stagePermute rebuilds the network with its species list randomly
// permuted (reactions untouched) and demands the compiled pipeline
// produce the same derivatives modulo the permutation. Canonical
// expression ordering makes this exact.
func stagePermute(cs *Case, rec *Recorder, _ float64) error {
	rng := rand.New(rand.NewSource(cs.Seed + 77))
	perm := rng.Perm(len(cs.Net.Species))
	pnet := network.New()
	for _, pi := range perm {
		s := cs.Net.Species[pi]
		if _, err := pnet.AddSpecies(s.Name, s.SMILES, s.Init); err != nil {
			return fmt.Errorf("permute: %w", err)
		}
	}
	for _, r := range cs.Net.Reactions {
		if _, err := pnet.AddReaction(r.Name, r.Rate, r.Consumed, r.Produced); err != nil {
			return fmt.Errorf("permute: %w", err)
		}
	}
	psys := eqgen.FromNetwork(pnet)
	z := opt.Optimize(psys, opt.Full())
	tape, err := codegen.Compile(z)
	if err != nil {
		return fmt.Errorf("permute: %w", err)
	}
	ref := make([]float64, len(cs.Y))
	cs.Tape.NewEvaluator().Eval(cs.Y, cs.K, ref)

	py := pnet.InitialConcentrations()
	pk := RateVector(psys.Rates)
	pdy := make([]float64, len(py))
	tape.NewEvaluator().Eval(py, pk, pdy)

	index := cs.Sys.SpeciesIndex()
	for pi, name := range psys.Species {
		oi, ok := index[name]
		if !ok {
			rec.Failf("permute: species %s lost", name)
			continue
		}
		rec.CheckExact(fmt.Sprintf("dy[%s] orig-vs-permuted", name), ref[oi], pdy[pi])
	}
	return nil
}

// stageScaleK checks rate/time rescaling: mass-action right-hand sides
// are linear in k, so dy(y, c·k) = c·dy(y, k) — exactly, for c a power
// of two — and integrating with c·k to time T/c lands on the same state
// as k to time T (to solver tolerance).
func stageScaleK(cs *Case, rec *Recorder, _ float64) error {
	const c = 2.0
	n := len(cs.Y)
	ev := cs.Tape.NewEvaluator()
	dy := make([]float64, n)
	ev.Eval(cs.Y, cs.K, dy)
	k2 := make([]float64, len(cs.K))
	for i, v := range cs.K {
		k2[i] = c * v
	}
	dy2 := make([]float64, n)
	ev.Eval(cs.Y, k2, dy2)
	for i := range dy {
		rec.CheckExact(fmt.Sprintf("dy[%d] k-scaling", i), c*dy[i], dy2[i])
	}

	// Trajectory form on a subset of cases (one pair of stiff solves).
	if cs.Seed%3 != 0 {
		return nil
	}
	je := cs.Jac.NewEvaluator()
	integrate := func(k []float64, t1 float64) ([]float64, error) {
		y := append([]float64(nil), cs.Y...)
		s := ode.NewBDF(func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }, n, ode.Options{
			RTol: 1e-9, ATol: 1e-12,
			Jacobian: func(_ float64, y []float64, dst *linalg.Matrix) { je.Eval(y, k, dst) },
		})
		if err := s.Integrate(0, t1, y); err != nil {
			return nil, err
		}
		return y, nil
	}
	yRef, err := integrate(cs.K, 1.0)
	if err != nil {
		return fmt.Errorf("scalek reference: %w", err)
	}
	yScaled, err := integrate(k2, 1.0/c)
	if err != nil {
		return fmt.Errorf("scalek scaled: %w", err)
	}
	rec.CheckVec("y(T) vs y(T/c) at c·k", yRef, yScaled, 1e-5)
	return nil
}

// stageConserve evaluates every conservation law of the network against
// the compiled derivatives (c·dy must vanish to rounding) and, when
// laws exist, against a trajectory (c·y is constant along solutions).
func stageConserve(cs *Case, rec *Recorder, _ float64) error {
	laws := cs.Net.ConservationLaws()
	if len(laws) == 0 {
		return nil
	}
	n := len(cs.Y)
	ev := cs.Tape.NewEvaluator()
	dy := make([]float64, n)
	ev.Eval(cs.Y, cs.K, dy)
	for li, law := range laws {
		dot, scale := 0.0, 0.0
		for i, ci := range law {
			dot += ci * dy[i]
			scale += math.Abs(ci * dy[i])
		}
		if math.Abs(dot) > 1e-10*(1+scale) {
			rec.Failf("law %d (%s): c·dy = %g (scale %g)", li, cs.Net.FormatLaw(law), dot, scale)
		}
		rec.record(dot, 0)
	}

	je := cs.Jac.NewEvaluator()
	y := append([]float64(nil), cs.Y...)
	s := ode.NewBDF(func(_ float64, y, dy []float64) { ev.Eval(y, cs.K, dy) }, n, ode.Options{
		RTol: 1e-8, ATol: 1e-11,
		Jacobian: func(_ float64, y []float64, dst *linalg.Matrix) { je.Eval(y, cs.K, dst) },
	})
	if err := s.Integrate(0, 1.0, y); err != nil {
		return fmt.Errorf("conserve trajectory: %w", err)
	}
	for li, law := range laws {
		before, after := 0.0, 0.0
		for i, ci := range law {
			before += ci * cs.Y[i]
			after += ci * y[i]
		}
		rec.CheckTol(fmt.Sprintf("law %d along trajectory", li), before, after, 1e-6)
	}
	return nil
}

// --- RDL round trip ---

// stageRDL generates a random structural RDL program, expands it, and
// demands the format→reparse round trip yield the same network and the
// same compiled derivatives; it also checks the formatter is a
// fixpoint.
func stageRDL(cs *Case, rec *Recorder, _ float64) error {
	rng := rand.New(rand.NewSource(cs.Seed + 99))
	src := RandomRDL(rng)
	prog, err := rdl.Parse(src)
	if err != nil {
		return fmt.Errorf("rdl parse (generator bug):\n%s\n%w", src, err)
	}
	net1, err := network.Generate(prog)
	if err != nil {
		return fmt.Errorf("rdl generate (generator bug):\n%s\n%w", src, err)
	}
	text := rdl.Format(prog)
	prog2, err := rdl.Parse(text)
	if err != nil {
		rec.Failf("formatted RDL does not reparse: %v", err)
		return nil
	}
	if again := rdl.Format(prog2); again != text {
		rec.Failf("format not idempotent:\n--- first\n%s\n--- second\n%s", text, again)
	}
	net2, err := network.Generate(prog2)
	if err != nil {
		rec.Failf("formatted RDL does not regenerate: %v", err)
		return nil
	}
	if !sameNetwork(net1, net2, rec) {
		return nil
	}
	dy1, err := compileEval(net1)
	if err != nil {
		return fmt.Errorf("rdl compile: %w", err)
	}
	dy2, err := compileEval(net2)
	if err != nil {
		return fmt.Errorf("rdl compile (round-tripped): %w", err)
	}
	rec.CheckVec("dy original-vs-roundtripped", dy1, dy2, -1)
	return nil
}

// sameNetwork compares two networks structurally, recording any drift.
func sameNetwork(a, b *network.Network, rec *Recorder) bool {
	ok := true
	if len(a.Species) != len(b.Species) {
		rec.Failf("species count %d vs %d", len(a.Species), len(b.Species))
		ok = false
	} else {
		for i, s := range a.Species {
			t := b.Species[i]
			if s.Name != t.Name || s.SMILES != t.SMILES || s.Init != t.Init {
				rec.Failf("species %d: %s/%s/%v vs %s/%s/%v",
					i, s.Name, s.SMILES, s.Init, t.Name, t.SMILES, t.Init)
				ok = false
			}
		}
	}
	if len(a.Reactions) != len(b.Reactions) {
		rec.Failf("reaction count %d vs %d", len(a.Reactions), len(b.Reactions))
		return false
	}
	for i, r := range a.Reactions {
		q := b.Reactions[i]
		if r.Name != q.Name || r.Rate != q.Rate ||
			strings.Join(r.Consumed, "|") != strings.Join(q.Consumed, "|") ||
			strings.Join(r.Produced, "|") != strings.Join(q.Produced, "|") {
			rec.Failf("reaction %d: %v vs %v", i, r, q)
			ok = false
		}
	}
	return ok
}

// compileEval runs a network through the production pipeline and
// evaluates the tape at its own initial state and name-hashed rates.
func compileEval(net *network.Network) ([]float64, error) {
	sys := eqgen.FromNetwork(net)
	z := opt.Optimize(sys, opt.Full())
	tape, err := codegen.Compile(z)
	if err != nil {
		return nil, err
	}
	y := net.InitialConcentrations()
	dy := make([]float64, len(y))
	tape.NewEvaluator().Eval(y, RateVector(sys.Rates), dy)
	return dy, nil
}
