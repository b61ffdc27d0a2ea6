package ode

import (
	"fmt"
	"math"

	"rms/internal/budget"
	"rms/internal/linalg"
)

// The Adams-Gear core: one integration advancing B independent copies
// (lanes) of the same n-dimensional system through a shared step
// sequence. The step size, order and history grid are common to the
// lanes — step control max-reduces the per-lane error norms — so the
// right-hand side is evaluated once per corrector iteration for all
// lanes through a structure-of-arrays BatchFunc
// (codegen.BatchEvaluator.EvalBatch), which is where a wide batch's
// throughput comes from. Linear algebra stays per-lane: every lane keeps
// its own Jacobian and LU factors, sharing only the sparsity pattern and
// its one-time symbolic factorization (linalg.SparseLU.Fork).
//
// Lanes mask out independently: a lane drops from the active set when
// its output grid is exhausted (done) or when it alone is responsible
// for driving the common step below MinStep (failed, see LaneErr) —
// either way without stalling the rest of the batch.

// BDF coefficients: y_{n+1} = Σ alpha[q][i]·y_{n-i} + h·beta[q]·f(t_{n+1}, y_{n+1}).
var (
	bdfAlpha = [6][]float64{
		nil,
		{1},
		{4.0 / 3, -1.0 / 3},
		{18.0 / 11, -9.0 / 11, 2.0 / 11},
		{48.0 / 25, -36.0 / 25, 16.0 / 25, -3.0 / 25},
		{300.0 / 137, -300.0 / 137, 200.0 / 137, -75.0 / 137, 12.0 / 137},
	}
	bdfBeta = [6]float64{0, 1, 2.0 / 3, 6.0 / 11, 12.0 / 25, 60.0 / 137}
)

// sparseFailLimit is how many consecutive sparse refactorization rounds
// may fail before the solver demotes itself to the dense LU path for
// good. Step-size shrinks between attempts give the sparse path real
// chances to recover; persistent failure means the pivot-free sparse
// factorization cannot handle this iteration matrix.
const sparseFailLimit = 3

// BatchFunc evaluates dy = f(t, y) for every lane at once. y and dy are
// slot-major structure-of-arrays: component i of lane l lives at
// [i*B + l], with total length n·B.
type BatchFunc func(t float64, y, dy []float64)

// BatchJac fills each active lane's sparse Jacobian ∂f/∂y at the batched
// state y (SoA as in BatchFunc). dst[l] has the layout of
// Options.SparsePattern; lanes with active[l] == false must be left
// untouched. codegen.BatchJacEvaluator.EvalCSR has exactly this shape.
type BatchJac func(t float64, y []float64, active []bool, dst []*linalg.CSR)

// BatchOptions configures a batched solver: the embedded Options, plus
// an optional batched analytic Jacobian.
type BatchOptions struct {
	Options
	// BatchJacobian, when non-nil together with Options.SparsePattern,
	// supplies every lane's Jacobian in one batched tape sweep. It takes
	// precedence over the per-lane SparseJacobian on the sparse path; on
	// the dense path (below the sparse gates, or after a demotion) its
	// output is scattered into dense matrices unless Options.Jacobian is
	// set.
	BatchJacobian BatchJac
}

// BDF is the Adams-Gear stiff solver: variable-order (1–5)
// backward-differentiation formulas with quasi-constant step size, a
// modified-Newton corrector with a lazily refreshed Jacobian, and
// polynomial history rescaling on step changes. One BDF advances one
// lane (NewBDF) or B lanes in lockstep (NewBatchBDF).
//
// The Jacobian comes from, on the sparse path, BatchJacobian or else the
// per-lane Options.SparseJacobian; on the dense path, the per-lane
// Options.Jacobian, else BatchJacobian scattered to dense, else forward
// differences. Per-lane callbacks receive one lane's state.
type BDF struct {
	f    BatchFunc
	n, b int
	opts BatchOptions

	// Shared integration state; every history entry is n·B SoA.
	hist   [][]float64 // hist[i] = y at tInt - i*h
	order  int
	h      float64
	streak int // consecutive accepted steps at the current order
	tInt   float64

	// Continuation: like IMSL's Adams-Gear state handle, an Integrate
	// call that starts exactly where the previous one ended continues
	// with the accumulated history, order and step instead of restarting
	// at order 1 — the estimator's record-to-record loop (Fig. 9).
	initialized bool
	tCur        float64     // endpoint reported by the last Integrate
	yOut        []float64   // y reported at tCur (continuation check)
	tOut        []float64   // Integrate's one-point output grid ...
	outT        [][]float64 // ... shared by every lane

	// Per-lane masking.
	active  []bool
	laneErr []error
	nextOut []int

	// Batched workspaces, all n·B SoA.
	ypred, ycorr []float64
	rhsConst     []float64
	f0, f1       []float64
	scratch      []float64

	// Lane-local workspaces (length n).
	laneB, laneX, laneY, laneE []float64

	// Per-lane Newton state.
	settled    []bool // lane's corrector converged this step
	culprits   []bool // lanes responsible for the last rejection
	haveFactor []bool
	jacFresh   bool
	luH        float64 // h·beta the current factorizations were built for

	// Dense per-lane Newton path.
	jac     []*linalg.Matrix
	lu      []*linalg.LU
	iterMat *linalg.Matrix // shared workspace; LU() clones it

	// Sparse per-lane Newton path: one symbolic factorization, forked.
	sparse      bool
	sparseFails int // consecutive failed sparse refactorization rounds
	jacCSR      []*linalg.CSR
	mCSR        []*linalg.CSR
	mDiag       []int32
	slu         []*linalg.SparseLU

	stats     Stats   // shared counters: JacNNZ, FillNNZ, SparseDemotions
	laneStats []Stats // per-lane work accounting (see LaneStats)
}

// NewBatchBDF returns a lockstep Adams-Gear solver for b lanes of an
// n-dimensional system.
func NewBatchBDF(f BatchFunc, n, b int, opts BatchOptions) *BDF {
	if b <= 0 {
		panic(fmt.Sprintf("ode: batch of %d lanes", b))
	}
	s := &BDF{
		f: f, n: n, b: b, opts: opts,
		tOut:       make([]float64, 1),
		outT:       make([][]float64, b),
		active:     make([]bool, b),
		laneErr:    make([]error, b),
		nextOut:    make([]int, b),
		ypred:      make([]float64, n*b),
		ycorr:      make([]float64, n*b),
		rhsConst:   make([]float64, n*b),
		f0:         make([]float64, n*b),
		f1:         make([]float64, n*b),
		scratch:    make([]float64, n*b),
		laneB:      make([]float64, n),
		laneX:      make([]float64, n),
		laneY:      make([]float64, n),
		laneE:      make([]float64, n),
		settled:    make([]bool, b),
		culprits:   make([]bool, b),
		haveFactor: make([]bool, b),
		lu:         make([]*linalg.LU, b),
		jac:        make([]*linalg.Matrix, b),
		laneStats:  make([]Stats, b),
	}
	for l := range s.outT {
		s.outT[l] = s.tOut
	}
	s.initSparse(opts.withDefaults(0, 0)) // the sparse gates ignore the interval
	return s
}

// initSparse decides once whether the solver runs the sparse Newton
// path: a sparse Jacobian source and its pattern must be supplied, the
// pattern must match the dimension and clear the density/size gates, and
// the symbolic factorization must succeed. Any failure keeps the dense
// path.
func (s *BDF) initSparse(o Options) {
	pat := o.SparsePattern
	if pat == nil || (o.SparseJacobian == nil && s.opts.BatchJacobian == nil) {
		return
	}
	if pat.N != s.n || s.n < o.SparseMinDim || o.SparseThreshold < 0 ||
		pat.Density() > o.SparseThreshold {
		return
	}
	slu0 := o.SymbolicLU
	if slu0 == nil || slu0.N() != s.n {
		var err error
		slu0, err = linalg.NewSparseLU(pat)
		if err != nil {
			return // pattern misses a diagonal: unusable without pivoting
		}
	}
	s.sparse = true
	s.jacCSR = make([]*linalg.CSR, s.b)
	s.mCSR = make([]*linalg.CSR, s.b)
	s.slu = make([]*linalg.SparseLU, s.b)
	for l := 0; l < s.b; l++ {
		s.jacCSR[l] = pat.Clone()
		s.mCSR[l] = pat.Clone()
		s.slu[l] = slu0.Fork()
	}
	s.mDiag = make([]int32, s.n)
	for i := 0; i < s.n; i++ {
		s.mDiag[i] = int32(s.mCSR[0].Index(i, i))
	}
	s.stats.JacNNZ = pat.NNZ()
	s.stats.FillNNZ = slu0.FillNNZ()
}

// Sparse reports whether the solver runs the sparse Newton path.
func (s *BDF) Sparse() bool { return s.sparse }

// Stats returns the summed per-lane work counters plus the shared sparse
// pattern sizes and demotions — the batch's total cost in one-lane units.
func (s *BDF) Stats() Stats {
	total := s.stats
	for _, st := range s.laneStats {
		total.Steps += st.Steps
		total.Rejected += st.Rejected
		total.FEvals += st.FEvals
		total.JEvals += st.JEvals
		total.Factorizations += st.Factorizations
		total.SparseFactorizations += st.SparseFactorizations
		total.NewtonIters += st.NewtonIters
		total.FactorOps += st.FactorOps
		total.SolveOps += st.SolveOps
	}
	return total
}

// LaneStats returns one lane's work counters: the steps it was active
// for, its share of the batched RHS evaluations, and its own Jacobian /
// factorization / solve work — the numbers the estimator's deterministic
// cost model consumes per data file.
func (s *BDF) LaneStats(lane int) Stats { return s.laneStats[lane] }

// LaneErr returns the terminal error of a failed lane (nil for lanes
// that completed, or are still pending).
func (s *BDF) LaneErr(lane int) error { return s.laneErr[lane] }

// Integrate advances every lane from t0 to t1 in place: y is n·B SoA
// (the plain state vector for one lane) and is overwritten with each
// lane's y(t1).
//
// Like the production stiff codes, the solver free-runs: it steps with
// its natural step size until the internal time covers t1 and reports
// y(t1) by interpolating the history polynomial. A following call that
// starts exactly at the previous endpoint, with y untouched, continues
// with the accumulated history, order and step — the estimator's
// record-to-record loop costs interpolations, not solver restarts.
// FixedStep mode (a testing hook) keeps exact-grid stepping without
// continuation.
//
// Integrate returns nil when at least one lane reached t1; per-lane
// failures are reported by LaneErr. A lane stopped by its budget holds
// its last accepted state, so the caller keeps a well-formed partial
// trajectory; a lane failing otherwise keeps its input state.
func (s *BDF) Integrate(t0, t1 float64, y []float64) error {
	if len(y) != s.n*s.b {
		return errWrap(errShape(len(y), s.n*s.b), t0)
	}
	if t1 == t0 {
		return nil
	}
	o := s.opts.withDefaults(t0, t1)
	dir := sign(t1 - t0)
	if o.FixedStep > 0 {
		return s.integrateFixed(t0, t1, dir, o, y)
	}
	if !s.canContinue(t0, y, dir) {
		s.reset(t0, y, o, dir)
	}
	s.tOut[0] = t1
	s.run(o, s.outT, func(lane, _ int, yl []float64) {
		for i, v := range yl {
			y[i*s.b+lane] = v
		}
	})
	s.initialized = true
	for l, err := range s.laneErr {
		if err == nil {
			continue
		}
		s.initialized = false
		if budget.Exhausted(err) {
			for i := 0; i < s.n; i++ {
				y[i*s.b+l] = s.hist[0][i*s.b+l]
			}
		}
	}
	if s.initialized {
		s.tCur = t1
		s.yOut = append(s.yOut[:0], y...)
	}
	return s.result()
}

// canContinue reports whether this call resumes exactly where the last
// one ended, so the accumulated history remains valid.
func (s *BDF) canContinue(t0 float64, y []float64, dir float64) bool {
	if !s.initialized || t0 != s.tCur {
		return false
	}
	// The caller must not have touched the state between calls, and the
	// direction must match the history grid.
	for i := range y {
		if y[i] != s.yOut[i] {
			return false
		}
	}
	return dir == sign(s.h)
}

// Solve integrates the batch forward from (t0, y0): y0 is n·B SoA, and
// outT[l] is lane l's ascending output grid (an empty grid masks the
// lane out immediately). emit is called once per (lane, grid index) with
// the interpolated lane state, in nondecreasing time order per lane; the
// slice is reused across calls. Lanes whose grid is exhausted, and lanes
// that individually drive the common step below MinStep, drop out of the
// lockstep without stalling the rest. Solve always starts afresh and
// returns nil when at least one lane completes; per-lane failures are
// reported by LaneErr.
func (s *BDF) Solve(t0 float64, y0 []float64, outT [][]float64, emit func(lane, idx int, y []float64)) error {
	n, b := s.n, s.b
	if len(y0) != n*b {
		return errWrap(errShape(len(y0), n*b), t0)
	}
	if len(outT) != b {
		return errWrap(fmt.Errorf("ode: batch output grids %d, want %d", len(outT), b), t0)
	}
	// Direction and horizon from the union of the grids.
	dir, tEnd, any := 0.0, t0, false
	for l, grid := range outT {
		for i := 1; i < len(grid); i++ {
			if grid[i] < grid[i-1] {
				return errWrap(fmt.Errorf("ode: lane %d output grid not ascending", l), t0)
			}
		}
		if len(grid) == 0 {
			continue
		}
		last := grid[len(grid)-1]
		if last != t0 {
			d := sign(last - t0)
			if dir != 0 && d != dir {
				return errWrap(fmt.Errorf("ode: batch output grids mix directions"), t0)
			}
			dir = d
		}
		if !any || (last-tEnd)*dir > 0 {
			tEnd, any = last, true
		}
	}
	o := s.opts.withDefaults(t0, tEnd)
	s.reset(t0, y0, o, dir)
	s.run(o, outT, emit)
	return s.result()
}

// result is the outcome of the last run: nil when at least one lane
// completed, else lane 0's error.
func (s *BDF) result() error {
	for _, e := range s.laneErr {
		if e == nil {
			return nil
		}
	}
	return s.laneErr[0]
}

// run steps the batch until every lane has emitted its whole output
// grid or failed.
func (s *BDF) run(o Options, outT [][]float64, emit func(lane, idx int, y []float64)) {
	for l := range s.active {
		s.active[l] = len(outT[l]) > 0
		s.laneErr[l] = nil
		s.nextOut[l] = 0
	}
	s.emitDue(outT, emit)
	for steps := 0; s.anyActive(); steps++ {
		if steps > o.MaxSteps {
			s.failActive(ErrTooManySteps)
			return
		}
		if err := o.Budget.Check(); err != nil {
			// Cooperative cancellation: still-pending lanes fail with the
			// budget error (budget.Exhausted tells them apart from solver
			// failures); lanes already emitted keep their results.
			s.failActive(err)
			return
		}
		tStep, hStep, orderStep := s.tInt, s.h, s.order
		var preNewton, preFactor int
		if o.Observer != nil {
			preNewton, preFactor = s.work()
		}
		accepted, errNorm := s.attemptStep(s.tInt, o)
		if o.Observer != nil {
			newton, factor := s.work()
			o.Observer(StepEvent{
				T: tStep, H: hStep, Order: orderStep,
				Accepted: accepted, ErrNorm: errNorm,
				NewtonIters:    newton - preNewton,
				Factorizations: factor - preFactor,
				Sparse:         s.sparse,
			})
		}
		if accepted {
			s.tInt += s.h
			s.streak++
			s.countActive(func(st *Stats) { st.Steps++ })
			// Adapt before emitting: output interpolates the history after
			// the step's order/step adaptation has rescaled it.
			s.adaptOrderAndStep(errNorm, o)
			s.emitDue(outT, emit)
			continue
		}
		s.streak = 0
		// Shrink; drop the order if failures persist at order > 1.
		shrink := math.Max(0.1, math.Min(0.5, 0.9*math.Pow(errNorm, -1.0/float64(s.order+1))))
		if s.order > 1 && errNorm > 100 {
			s.order--
		}
		s.rescaleHistory(shrink)
		s.h *= shrink
		s.countActive(func(st *Stats) { st.Rejected++ })
		if math.Abs(s.h) < o.MinStep && !s.failCulprits(ErrStepTooSmall) {
			return
		}
	}
}

// work sums the lanes' Newton iterations and factorizations (the
// per-attempt StepEvent work is the difference of two sums).
func (s *BDF) work() (newton, factor int) {
	for _, st := range s.laneStats {
		newton += st.NewtonIters
		factor += st.Factorizations
	}
	return newton, factor
}

// countActive applies inc to every active lane's counters.
func (s *BDF) countActive(inc func(*Stats)) {
	for l, a := range s.active {
		if a {
			inc(&s.laneStats[l])
		}
	}
}

// anyActive reports whether any lane still integrates.
func (s *BDF) anyActive() bool {
	for _, a := range s.active {
		if a {
			return true
		}
	}
	return false
}

// failActive marks every still-active lane failed with err.
func (s *BDF) failActive(err error) {
	for l, a := range s.active {
		if a {
			s.laneErr[l] = errWrap(err, s.tInt)
			s.active[l] = false
		}
	}
}

// failCulprits retires the active lanes flagged as responsible for the
// last rejection (falling back to all active lanes when the flags are
// empty) and reports whether any lane survives to continue.
func (s *BDF) failCulprits(cause error) bool {
	hit := false
	for l, a := range s.active {
		if a && s.culprits[l] {
			s.laneErr[l] = errWrap(cause, s.tInt)
			s.active[l] = false
			hit = true
		}
	}
	if !hit {
		s.failActive(cause)
		return false
	}
	return s.anyActive()
}

// emitDue interpolates and emits every output time the integration has
// covered, masking out lanes whose grid is exhausted.
func (s *BDF) emitDue(outT [][]float64, emit func(int, int, []float64)) {
	dir := sign(s.h)
	for l := range s.active {
		if !s.active[l] {
			continue
		}
		grid := outT[l]
		for s.nextOut[l] < len(grid) {
			t := grid[s.nextOut[l]]
			if (s.tInt-t)*dir < 0 && !reached(s.tInt, t, dir) {
				break
			}
			// x counts steps ahead of the newest history point; the last
			// step brackets t, so x stays within the stored history.
			x := 0.0
			if s.h != 0 {
				x = (t - s.tInt) / s.h
			}
			s.interpolate(s.order, x, s.laneY, l, s.b)
			if emit != nil {
				emit(l, s.nextOut[l], s.laneY)
			}
			s.nextOut[l]++
		}
		if s.nextOut[l] == len(grid) {
			s.active[l] = false // done — drop out of the lockstep
		}
	}
}

// reset starts a fresh integration at (t0, y0).
func (s *BDF) reset(t0 float64, y0 []float64, o Options, dir float64) {
	if dir == 0 {
		dir = 1
	}
	s.h = o.InitialStep * dir
	if o.MaxStep < math.Abs(s.h) {
		s.h = o.MaxStep * dir
	}
	s.order = 1
	s.hist = append(s.hist[:0], append([]float64(nil), y0...))
	s.tInt = t0
	s.jacFresh = false
	s.luH = math.NaN()
	s.streak = 0
	s.initialized = false
	for l := range s.haveFactor {
		s.haveFactor[l] = false
	}
}

// integrateFixed is the exact-grid fixed-step path used by the
// convergence-order tests: every step is accepted, the last one is
// shortened to land on t1, and y receives the newest history point.
func (s *BDF) integrateFixed(t0, t1, dir float64, o Options, y []float64) error {
	s.reset(t0, y, o, dir)
	for l := range s.active {
		s.active[l] = true
	}
	s.h = o.FixedStep * dir
	t := t0
	if o.FixedOrder > 1 {
		// Populate the startup history with a high-accuracy Runge-Kutta
		// starter so the measured order is the BDF formula's, not the
		// order-1 startup's.
		starter := NewRKV65(Func(s.f), s.n*s.b, Options{RTol: 1e-12, ATol: 1e-14})
		ys := append([]float64(nil), y...)
		for i := 1; i < o.FixedOrder; i++ {
			if err := starter.Integrate(t, t+s.h, ys); err != nil {
				return errWrap(err, t)
			}
			t += s.h
			s.hist = append([][]float64{append([]float64(nil), ys...)}, s.hist...)
		}
		s.order = o.FixedOrder
	}
	for steps := 0; ; steps++ {
		if steps > o.MaxSteps {
			return errWrap(ErrTooManySteps, t)
		}
		if err := o.Budget.Check(); err != nil {
			copy(y, s.hist[0])
			return errWrap(err, t)
		}
		if reached(t, t1, dir) {
			copy(y, s.hist[0])
			return nil
		}
		if (t+s.h-t1)*dir > 0 {
			s.rescaleHistory((t1 - t) / s.h)
			s.h = t1 - t
		}
		if accepted, _ := s.attemptStep(t, o); !accepted {
			return errWrap(ErrStepTooSmall, t)
		}
		t += s.h
		s.countActive(func(st *Stats) { st.Steps++ })
		s.adaptOrderAndStep(0, o)
	}
}

// attemptStep tries one step of the current order and size: predictor,
// shared corrector equation, lockstep Newton, then a max-reduced error
// norm over the active lanes; an accepted step shifts the history. It
// returns (accepted, errNorm). A Newton failure shrinks the step by 4
// and reports an infinite error norm.
func (s *BDF) attemptStep(t float64, o Options) (bool, float64) {
	q := s.order
	if q > len(s.hist) {
		q = len(s.hist)
	}
	yn := s.hist[0]
	tNew := t + s.h

	// Predictor: extrapolate the interpolating polynomial through the
	// history to the new time (x measured in steps: hist[i] at -i, target +1).
	s.interpolate(q, 1.0, s.ypred, 0, 1)

	// Constant part of the corrector equation.
	for i := range s.rhsConst {
		s.rhsConst[i] = 0
	}
	for i := 0; i < q; i++ {
		linalg.Axpy(bdfAlpha[q][i], s.hist[i], s.rhsConst)
	}
	hb := s.h * bdfBeta[q]

	if !s.newton(tNew, hb, o) {
		// Newton failed with a fresh Jacobian (culprit lanes flagged):
		// reduce the step sharply; the caller's rejection path handles
		// step underflow.
		s.rescaleHistory(0.25)
		s.h *= 0.25
		s.countActive(func(st *Stats) { st.Rejected++ })
		return false, math.Inf(1)
	}

	// Per-lane local error estimate from the corrector-predictor
	// difference, max-reduced for the common step control. A NaN lane
	// norm counts as infinite so the rejection path shrinks
	// deterministically instead of propagating NaN into h.
	for i := range s.scratch {
		s.scratch[i] = (s.ycorr[i] - s.ypred[i]) / float64(q+1)
	}
	errNorm := 0.0
	for l, a := range s.active {
		s.culprits[l] = false
		if !a {
			continue
		}
		en := weightedNorm(s.lane(s.scratch, l, s.laneE), s.lane(yn, l, s.laneB),
			s.lane(s.ycorr, l, s.laneY), o.ATol, o.RTol)
		if math.IsNaN(en) {
			en = math.Inf(1)
		}
		if en > 1 {
			s.culprits[l] = true
		}
		if en > errNorm {
			errNorm = en
		}
	}
	if o.FixedStep > 0 {
		errNorm = 0 // fixed-step mode accepts unconditionally
	}
	if errNorm > 1 {
		return false, errNorm
	}
	const maxHist = 6
	s.hist = append([][]float64{append([]float64(nil), s.ycorr...)}, s.hist...)
	if len(s.hist) > maxHist {
		s.hist = s.hist[:maxHist]
	}
	return true, errNorm
}

// newton runs the lockstep modified-Newton corrector for
// y - hb·f(t,y) - rhsConst = 0, starting from the predictor. Each lane
// settles independently (its update stops once its correction norm
// passes the 0.3 gate); the batched right-hand side is evaluated once
// per iteration for all lanes. It returns false — with s.culprits
// flagging the culprit lanes — when some active lane fails to converge
// even after a Jacobian refresh.
func (s *BDF) newton(t, hb float64, o Options) bool {
	copy(s.ycorr, s.ypred)
	for l := range s.settled {
		s.settled[l] = false
		s.culprits[l] = false
	}
	n, b := s.n, s.b
	refreshed := false
	for pass := 0; pass < 2; pass++ {
		if s.needFactor(hb) || (pass == 1 && !refreshed) {
			if pass == 1 || !s.jacFresh {
				s.buildJacobians(t)
				refreshed = true
			}
			if !s.factorLanes(hb) {
				// A singular iteration matrix is a Newton failure, so the
				// step shrinks; the culprits are already flagged.
				return false
			}
		}
		for iter := 0; iter < 6; iter++ {
			if s.allSettled() {
				return true
			}
			s.f(t, s.ycorr, s.f1)
			for l, a := range s.active {
				if !a || s.settled[l] {
					continue
				}
				st := &s.laneStats[l]
				st.NewtonIters++
				st.FEvals++
				for i := 0; i < n; i++ {
					s.laneB[i] = s.ycorr[i*b+l] - hb*s.f1[i*b+l] - s.rhsConst[i*b+l]
				}
				if err := s.solveLane(l, s.laneX, s.laneB); err != nil {
					s.haveFactor[l] = false
					s.culprits[l] = true
					return false
				}
				for i := 0; i < n; i++ {
					s.ycorr[i*b+l] -= s.laneX[i]
				}
				yc := s.lane(s.ycorr, l, s.laneY)
				if weightedNorm(s.laneX, yc, yc, o.ATol, o.RTol) < 0.3 {
					s.settled[l] = true
				}
			}
		}
		if s.allSettled() {
			return true
		}
		// Unconverged lanes restart from the predictor; with a fresh
		// Jacobian already in hand there is nothing left to try.
		for l, a := range s.active {
			s.culprits[l] = a && !s.settled[l]
			if s.culprits[l] {
				for i := 0; i < n; i++ {
					s.ycorr[i*b+l] = s.ypred[i*b+l]
				}
			}
		}
		if refreshed {
			return false
		}
	}
	return false
}

// allSettled reports whether every active lane's corrector converged.
func (s *BDF) allSettled() bool {
	for l, a := range s.active {
		if a && !s.settled[l] {
			return false
		}
	}
	return true
}

// needFactor reports whether any active lane lacks a factorization for
// the current h·beta.
func (s *BDF) needFactor(hb float64) bool {
	if s.luH != hb {
		return true
	}
	for l, a := range s.active {
		if a && !s.haveFactor[l] {
			return true
		}
	}
	return false
}

// lane returns lane l's column of the SoA array src: src itself for a
// single lane, otherwise a copy gathered into dst (length n).
func (s *BDF) lane(src []float64, l int, dst []float64) []float64 {
	if s.b == 1 {
		return src
	}
	for i := range dst {
		dst[i] = src[i*s.b+l]
	}
	return dst
}

// buildJacobians refreshes every active lane's Jacobian at
// (t, hist[0]) from the source the path selects (see BDF). Forward
// differences cost n+1 batched RHS evaluations, never n+1 per lane.
func (s *BDF) buildJacobians(t float64) {
	y := s.hist[0]
	n, b := s.n, s.b
	o := &s.opts
	for l, a := range s.active {
		if a && !s.sparse && s.jac[l] == nil {
			s.jac[l] = linalg.NewMatrix(n, n)
		}
	}
	switch {
	case s.sparse && o.BatchJacobian != nil:
		o.BatchJacobian(t, y, s.active, s.jacCSR)
	case s.sparse:
		for l, a := range s.active {
			if a {
				o.SparseJacobian(t, s.lane(y, l, s.laneY), s.jacCSR[l])
			}
		}
	case o.Jacobian != nil:
		for l, a := range s.active {
			if a {
				o.Jacobian(t, s.lane(y, l, s.laneY), s.jac[l])
			}
		}
	case o.BatchJacobian != nil && o.SparsePattern != nil:
		// Analytic Jacobian on the dense path: evaluate into CSR and
		// scatter each lane to dense.
		if s.jacCSR == nil {
			s.jacCSR = make([]*linalg.CSR, b)
			for l := range s.jacCSR {
				s.jacCSR[l] = o.SparsePattern.Clone()
			}
		}
		o.BatchJacobian(t, y, s.active, s.jacCSR)
		for l, a := range s.active {
			if a {
				s.jacCSR[l].DenseTo(s.jac[l])
			}
		}
	default:
		// Forward differences, column by column across all lanes.
		s.f(t, y, s.f0)
		copy(s.scratch, y)
		const sqrtEps = 1.4901161193847656e-08
		for j := 0; j < n; j++ {
			for l, a := range s.active {
				if a {
					d := sqrtEps * math.Max(math.Abs(y[j*b+l]), 1e-5)
					s.scratch[j*b+l] = y[j*b+l] + d
				}
			}
			s.f(t, s.scratch, s.f1)
			for l, a := range s.active {
				if !a {
					continue
				}
				d := sqrtEps * math.Max(math.Abs(y[j*b+l]), 1e-5)
				inv := 1 / d
				for i := 0; i < n; i++ {
					s.jac[l].Set(i, j, (s.f1[i*b+l]-s.f0[i*b+l])*inv)
				}
				s.scratch[j*b+l] = y[j*b+l]
			}
		}
		s.countActive(func(st *Stats) { st.FEvals += n + 1 })
	}
	s.countActive(func(st *Stats) { st.JEvals++ })
	s.jacFresh = true
}

// factorLanes builds and factors every active lane's iteration matrix
// M = I − hb·J: a numeric refactorization over the one-time symbolic
// pattern on the sparse path, a dense LU with partial pivoting
// otherwise. Lanes whose matrix is singular are flagged as Newton
// culprits; the call reports whether every active lane factored.
func (s *BDF) factorLanes(hb float64) bool {
	n := s.n
	nf := float64(n)
	ok := true
	for l, a := range s.active {
		if !a {
			continue
		}
		st := &s.laneStats[l]
		if s.sparse {
			md := s.mCSR[l].Data
			for p, v := range s.jacCSR[l].Data {
				md[p] = -hb * v
			}
			for _, d := range s.mDiag {
				md[d]++
			}
			if err := s.slu[l].Refactor(s.mCSR[l]); err != nil {
				s.haveFactor[l] = false
				s.culprits[l] = true
				ok = false
				continue
			}
			s.haveFactor[l] = true
			st.Factorizations++
			st.SparseFactorizations++
			st.FactorOps += float64(s.slu[l].RefactorFlops())
			continue
		}
		if s.iterMat == nil {
			s.iterMat = linalg.NewMatrix(n, n)
		}
		m := s.iterMat
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := -hb * s.jac[l].At(i, j)
				if i == j {
					v += 1
				}
				m.Set(i, j, v)
			}
		}
		lu, err := m.LU()
		if err != nil {
			s.haveFactor[l] = false
			s.culprits[l] = true
			ok = false
			continue
		}
		s.lu[l] = lu
		s.haveFactor[l] = true
		st.Factorizations++
		st.FactorOps += (2.0 / 3.0) * nf * nf * nf
	}
	s.luH = hb
	if s.sparse {
		s.noteSparseRound(ok)
	}
	return ok
}

// noteSparseRound runs the sparse→dense degradation ladder after one
// round of sparse refactorizations. The sparse LU has no pivoting, so a
// persistently troublesome iteration matrix can defeat it where the
// partial-pivoting dense LU survives: after sparseFailLimit consecutive
// failed rounds the solver retires the sparse path and continues dense —
// slower, but the integration completes.
func (s *BDF) noteSparseRound(ok bool) {
	if ok {
		s.sparseFails = 0
		return
	}
	s.sparseFails++
	// Rebuild before the next attempt: the failure may be a transient
	// bad Jacobian, not the pattern.
	s.jacFresh = false
	if s.sparseFails >= sparseFailLimit {
		s.sparse = false
		s.stats.SparseDemotions++
		for l := range s.haveFactor {
			s.haveFactor[l] = false
		}
		s.opts.Log.Warn("degrade", "sparse LU demoted to dense",
			"consecutive_failures", s.sparseFails)
	}
}

// solveLane solves lane l's factored iteration matrix against b into dst.
func (s *BDF) solveLane(l int, dst, b []float64) error {
	st := &s.laneStats[l]
	if s.sparse {
		st.SolveOps += float64(s.slu[l].SolveFlops())
		return s.slu[l].SolveTo(dst, b)
	}
	nf := float64(s.n)
	st.SolveOps += 2 * nf * nf
	return s.lu[l].SolveTo(dst, b)
}

// adaptOrderAndStep grows the order up the ladder after a streak of
// successes and rescales the step from the error estimate.
func (s *BDF) adaptOrderAndStep(errNorm float64, o Options) {
	if o.FixedOrder > 0 {
		if s.order < o.FixedOrder && len(s.hist) > s.order {
			s.order++
		}
	} else if s.order < 5 && s.streak > s.order+1 && len(s.hist) > s.order {
		s.order++
		s.streak = 0
	}
	if o.FixedStep > 0 {
		return
	}
	factor := 0.9 * math.Pow(math.Max(errNorm, 1e-10), -1.0/float64(s.order+1))
	factor = math.Min(2.5, math.Max(0.5, factor))
	if factor > 1.1 || factor < 0.9 {
		s.rescaleHistory(factor)
		s.h *= factor
		if math.Abs(s.h) > o.MaxStep {
			s.rescaleHistory(o.MaxStep / math.Abs(s.h))
			s.h = o.MaxStep * sign(s.h)
		}
		// Step changes invalidate the factorization's h·beta.
		s.luH = math.NaN()
		s.jacFresh = false
	}
}

// rescaleHistory re-samples the stored history polynomial onto a grid
// with spacing ratio·h, keeping the current point fixed — every
// (component, lane) pair is one scalar history.
func (s *BDF) rescaleHistory(ratio float64) {
	m := len(s.hist)
	if m <= 1 || ratio == 1 {
		return
	}
	old := s.hist
	s.hist = make([][]float64, m)
	s.hist[0] = old[0]
	for i := 1; i < m; i++ {
		s.hist[i] = make([]float64, len(old[0]))
	}
	// Neville interpolation: old[j] at x = -j, new grid at x = -i*ratio.
	work := make([]float64, m)
	for c := range old[0] {
		for i := 1; i < m; i++ {
			for j := 0; j < m; j++ {
				work[j] = old[j][c]
			}
			s.hist[i][c] = neville(work, -float64(i)*ratio)
		}
	}
	s.luH = math.NaN()
}

// interpolate evaluates the degree-q history polynomial at x (in units
// of h ahead of the newest point) for the history entries off,
// off+stride, … into dst: every entry with (0, 1), one lane's column
// with (lane, B).
func (s *BDF) interpolate(q int, x float64, dst []float64, off, stride int) {
	m := q + 1
	if m > len(s.hist) {
		m = len(s.hist)
	}
	work := make([]float64, m)
	for i := range dst {
		c := off + i*stride
		for j := 0; j < m; j++ {
			work[j] = s.hist[j][c]
		}
		dst[i] = neville(work, x)
	}
}

// neville evaluates at x the polynomial through the points (-j, w[j]),
// overwriting w.
func neville(w []float64, x float64) float64 {
	m := len(w)
	for level := 1; level < m; level++ {
		for j := 0; j < m-level; j++ {
			xj := -float64(j)
			xjl := -float64(j + level)
			w[j] = ((x-xjl)*w[j] - (x-xj)*w[j+1]) / (xj - xjl)
		}
	}
	return w[0]
}
