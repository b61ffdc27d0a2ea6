package ode

import (
	"math"

	"rms/internal/budget"
	"rms/internal/linalg"
)

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

// maxHist is the most history points the solver keeps: order 5 needs six.
const maxHist = 6

// sparseFailLimit is how many consecutive sparse refactorization rounds
// may fail before the solver demotes itself to the dense LU path for
// good. Step-size shrinks between attempts give the sparse path real
// chances to recover; persistent failure means the pivot-free sparse
// factorization cannot handle this iteration matrix.
const sparseFailLimit = 3

// BDF is the Adams-Gear stiff solver: variable-order (1–5)
// backward-differentiation formulas with quasi-constant step size, a
// modified-Newton corrector with a lazily refreshed Jacobian, and
// polynomial history rescaling on step changes.
//
// On the dense Newton path the Jacobian comes from Options.Jacobian,
// else from forward differences; on the sparse path (see
// Options.SparsePattern) it comes from Options.SparseJacobian.
type BDF struct {
	f    Func
	n    int
	opts Options

	// Integration state. The history vectors are recycled: an accepted
	// step rotates the headers and overwrites the oldest, a rescale writes
	// into spares and swaps them in, so a warm solver steps without
	// allocating.
	hist   [][]float64 // hist[i] = y at tInt - i*h; at most maxHist
	spare  [][]float64 // free n-vectors for new history points
	work   [][]float64 // Neville scratch vectors (see neville)
	order  int
	h      float64
	streak int // consecutive accepted steps at the current order
	tInt   float64

	// Continuation: like IMSL's Adams-Gear state handle, an Integrate
	// call that starts exactly where the previous one ended continues
	// with the accumulated history, order and step instead of restarting
	// at order 1 — the estimator's record-to-record loop (Fig. 9).
	initialized bool
	tCur        float64   // endpoint reported by the last Integrate
	yOut        []float64 // y reported at tCur (continuation check)

	// Workspaces.
	ypred, ycorr []float64
	rhsConst     []float64
	f0, f1       []float64
	scratch      []float64
	resid, dx    []float64 // Newton residual and correction

	// Newton state.
	haveFactor bool
	jacFresh   bool
	luH        float64 // h·beta the current factorization was built for

	// Dense Newton path.
	jac     *linalg.Matrix
	lu      linalg.LU      // refactored in place
	iterMat *linalg.Matrix // I − hb·J, copied into lu by Refactor

	// Sparse Newton path: a fork of the one-time symbolic factorization.
	sparse       bool
	sparseFails  int // consecutive failed sparse refactorization rounds
	jacCSR, mCSR *linalg.CSR
	mDiag        []int32
	slu          *linalg.SparseLU

	stats Stats
}

// NewBDF returns an Adams-Gear solver for one n-dimensional system.
func NewBDF(f Func, n int, opts Options) *BDF {
	s := &BDF{
		f: f, n: n, opts: opts,
		ypred:    make([]float64, n),
		ycorr:    make([]float64, n),
		rhsConst: make([]float64, n),
		f0:       make([]float64, n),
		f1:       make([]float64, n),
		scratch:  make([]float64, n),
		resid:    make([]float64, n),
		dx:       make([]float64, n),
		hist:     make([][]float64, 0, maxHist),
		spare:    make([][]float64, 0, 2*maxHist),
		work:     make([][]float64, 0, maxHist-2),
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
	if pat == nil || o.SparseJacobian == nil {
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
	s.jacCSR = pat.Clone()
	s.mCSR = pat.Clone()
	s.slu = slu0.Fork()
	s.mDiag = make([]int32, s.n)
	for i := 0; i < s.n; i++ {
		s.mDiag[i] = int32(s.mCSR.Index(i, i))
	}
	s.stats.JacNNZ = pat.NNZ()
	s.stats.FillNNZ = slu0.FillNNZ()
}

// Sparse reports whether the solver runs the sparse Newton path.
func (s *BDF) Sparse() bool { return s.sparse }

// Stats returns the work counters accumulated over the solver's life.
func (s *BDF) Stats() Stats { return s.stats }

// Integrate advances y from t0 to t1 in place.
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
// A solve stopped by its budget leaves y at the last accepted state, so
// the caller keeps a well-formed partial trajectory; a solve failing
// otherwise leaves y as it was.
func (s *BDF) Integrate(t0, t1 float64, y []float64) error {
	if len(y) != s.n {
		return errWrap(errShape(len(y), s.n), t0)
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
	err := s.run(t1, o, minStep(t0, t1), y)
	s.initialized = err == nil
	if err != nil {
		if budget.Exhausted(err) {
			copy(y, s.hist[0])
		}
		return err
	}
	s.tCur = t1
	s.yOut = append(s.yOut[:0], y...)
	return nil
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

// run steps until the internal time covers t1, then interpolates y(t1)
// into y. A step shrinking below hMin fails the integration. A failure is
// returned wrapped with the internal time reached.
func (s *BDF) run(t1 float64, o Options, hMin float64, y []float64) error {
	if s.emitDue(t1, y) {
		return nil
	}
	for steps := 0; ; steps++ {
		if steps > o.MaxSteps {
			return errWrap(ErrTooManySteps, s.tInt)
		}
		if err := o.Budget.Check(); err != nil {
			// Cooperative cancellation: budget.Exhausted tells it apart
			// from a solver failure.
			return errWrap(err, s.tInt)
		}
		tStep, hStep, orderStep := s.tInt, s.h, s.order
		preNewton, preFactor := s.stats.NewtonIters, s.stats.Factorizations
		accepted, errNorm := s.attemptStep(s.tInt, o)
		if o.Observer != nil {
			o.Observer(StepEvent{
				T: tStep, H: hStep, Order: orderStep,
				Accepted: accepted, ErrNorm: errNorm,
				NewtonIters:    s.stats.NewtonIters - preNewton,
				Factorizations: s.stats.Factorizations - preFactor,
				Sparse:         s.sparse,
			})
		}
		if accepted {
			s.tInt += s.h
			s.streak++
			s.stats.Steps++
			// Adapt before emitting: output interpolates the history after
			// the step's order/step adaptation has rescaled it.
			s.adaptOrderAndStep(errNorm, o)
			if s.emitDue(t1, y) {
				return nil
			}
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
		s.stats.Rejected++
		if math.Abs(s.h) < hMin {
			return errWrap(ErrStepTooSmall, s.tInt)
		}
	}
}

// emitDue reports whether the integration has covered t1 and, if so,
// interpolates y(t1) into y.
func (s *BDF) emitDue(t1 float64, y []float64) bool {
	dir := sign(s.h)
	if (s.tInt-t1)*dir < 0 && !reached(s.tInt, t1, dir) {
		return false
	}
	// x counts steps ahead of the newest history point; the last step
	// brackets t1, so x stays within the stored history.
	x := 0.0
	if s.h != 0 {
		x = (t1 - s.tInt) / s.h
	}
	s.interpolate(s.order, x, y)
	return true
}

// reset starts a fresh integration at (t0, y0).
func (s *BDF) reset(t0 float64, y0 []float64, o Options, dir float64) {
	s.h = o.InitialStep * dir
	s.order = 1
	s.spare = append(s.spare, s.hist...)
	s.hist = s.hist[:0]
	s.push(y0)
	s.tInt = t0
	s.jacFresh = false
	s.luH = math.NaN()
	s.streak = 0
	s.initialized = false
	s.haveFactor = false
}

// integrateFixed is the exact-grid fixed-step path used by the
// convergence-order tests: every step is accepted, the last one is
// shortened to land on t1, and y receives the newest history point.
func (s *BDF) integrateFixed(t0, t1, dir float64, o Options, y []float64) error {
	s.reset(t0, y, o, dir)
	s.h = o.FixedStep * dir
	t := t0
	if o.FixedOrder > 1 {
		// Populate the startup history with a high-accuracy Runge-Kutta
		// starter so the measured order is the BDF formula's, not the
		// order-1 startup's.
		starter := NewRKV65(s.f, s.n, Options{RTol: 1e-12, ATol: 1e-14})
		ys := append([]float64(nil), y...)
		for i := 1; i < o.FixedOrder; i++ {
			if err := starter.Integrate(t, t+s.h, ys); err != nil {
				return errWrap(err, t)
			}
			t += s.h
			s.push(ys)
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
		s.stats.Steps++
		s.adaptOrderAndStep(0, o)
	}
}

// attemptStep tries one step of the current order and size: predictor,
// corrector equation, modified Newton, then the weighted error norm of
// the corrector-predictor difference; an accepted step shifts the
// history. It returns (accepted, errNorm). A Newton failure shrinks the
// step by 4 and reports an infinite error norm. The caller counts a
// rejection, whatever its cause, once.
func (s *BDF) attemptStep(t float64, o Options) (bool, float64) {
	q := s.order
	if q > len(s.hist) {
		q = len(s.hist)
	}
	yn := s.hist[0]
	tNew := t + s.h

	// Predictor: extrapolate the interpolating polynomial through the
	// history to the new time (x measured in steps: hist[i] at -i, target +1).
	s.interpolate(q, 1.0, s.ypred)

	// Constant part of the corrector equation.
	clear(s.rhsConst)
	for i := 0; i < q; i++ {
		linalg.Axpy(bdfAlpha[q][i], s.hist[i], s.rhsConst)
	}
	hb := s.h * bdfBeta[q]

	if !s.newton(tNew, hb, o) {
		// Newton failed with a fresh Jacobian: reduce the step sharply;
		// the caller's rejection path handles step underflow.
		s.rescaleHistory(0.25)
		s.h *= 0.25
		return false, math.Inf(1)
	}

	// Local error estimate from the corrector-predictor difference. A NaN
	// norm counts as infinite so the rejection path shrinks
	// deterministically instead of propagating NaN into h.
	for i := range s.scratch {
		s.scratch[i] = (s.ycorr[i] - s.ypred[i]) / float64(q+1)
	}
	errNorm := weightedNorm(s.scratch, yn, s.ycorr, o.ATol, o.RTol)
	if math.IsNaN(errNorm) {
		errNorm = math.Inf(1)
	}
	if o.FixedStep > 0 {
		errNorm = 0 // fixed-step mode accepts unconditionally
	}
	if errNorm > 1 {
		return false, errNorm
	}
	s.push(s.ycorr)
	return true, errNorm
}

// newton runs the modified-Newton corrector for
// y - hb·f(t,y) - rhsConst = 0, starting from the predictor; the
// iteration stops once the correction norm passes the 0.3 gate. It
// returns false when the corrector fails to converge even after a
// Jacobian refresh, or when the iteration matrix is singular.
func (s *BDF) newton(t, hb float64, o Options) bool {
	copy(s.ycorr, s.ypred)
	refreshed := false
	for pass := 0; pass < 2; pass++ {
		if s.luH != hb || !s.haveFactor || (pass == 1 && !refreshed) {
			if pass == 1 || !s.jacFresh {
				s.buildJacobian(t)
				refreshed = true
			}
			if !s.factor(hb) {
				return false
			}
		}
		for iter := 0; iter < 6; iter++ {
			s.f(t, s.ycorr, s.f1)
			s.stats.NewtonIters++
			s.stats.FEvals++
			for i := range s.resid {
				s.resid[i] = s.ycorr[i] - hb*s.f1[i] - s.rhsConst[i]
			}
			if err := s.solve(s.dx, s.resid); err != nil {
				s.haveFactor = false
				return false
			}
			for i, d := range s.dx {
				s.ycorr[i] -= d
			}
			if weightedNormAt(s.dx, s.ycorr, o.ATol, o.RTol) < 0.3 {
				return true
			}
		}
		// Unconverged: restart from the predictor; with a fresh Jacobian
		// already in hand there is nothing left to try.
		copy(s.ycorr, s.ypred)
		if refreshed {
			return false
		}
	}
	return false
}

// buildJacobian refreshes the Jacobian at (t, hist[0]) from the source
// the path selects (see BDF). Forward differences cost n+1 right-hand-side
// evaluations.
func (s *BDF) buildJacobian(t float64) {
	y := s.hist[0]
	n := s.n
	if !s.sparse && s.jac == nil {
		s.jac = linalg.NewMatrix(n, n)
	}
	switch {
	case s.sparse:
		s.opts.SparseJacobian(t, y, s.jacCSR)
	case s.opts.Jacobian != nil:
		s.opts.Jacobian(t, y, s.jac)
	default:
		s.f(t, y, s.f0)
		copy(s.scratch, y)
		const sqrtEps = 1.4901161193847656e-08
		for j := 0; j < n; j++ {
			d := sqrtEps * math.Max(math.Abs(y[j]), 1e-5)
			s.scratch[j] = y[j] + d
			s.f(t, s.scratch, s.f1)
			inv := 1 / d
			for i := 0; i < n; i++ {
				s.jac.Set(i, j, (s.f1[i]-s.f0[i])*inv)
			}
			s.scratch[j] = y[j]
		}
		s.stats.FEvals += n + 1
	}
	s.stats.JEvals++
	s.jacFresh = true
}

// factor builds and factors the iteration matrix M = I − hb·J: a
// numeric refactorization over the one-time symbolic pattern on the
// sparse path, a dense LU with partial pivoting otherwise. It reports
// whether M factored.
func (s *BDF) factor(hb float64) bool {
	s.luH = hb
	if s.sparse {
		md := s.mCSR.Data
		for p, v := range s.jacCSR.Data {
			md[p] = -hb * v
		}
		for _, d := range s.mDiag {
			md[d]++
		}
		err := s.slu.Refactor(s.mCSR)
		s.haveFactor = err == nil
		if s.haveFactor {
			s.stats.Factorizations++
			s.stats.SparseFactorizations++
			s.stats.FactorOps += float64(s.slu.RefactorFlops())
		}
		s.noteSparseRound(s.haveFactor)
		return s.haveFactor
	}
	n := s.n
	if s.iterMat == nil {
		s.iterMat = linalg.NewMatrix(n, n)
	}
	m := s.iterMat
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := -hb * s.jac.At(i, j)
			if i == j {
				v += 1
			}
			m.Set(i, j, v)
		}
	}
	s.haveFactor = s.lu.Refactor(m) == nil
	if !s.haveFactor {
		return false
	}
	nf := float64(n)
	s.stats.Factorizations++
	s.stats.FactorOps += (2.0 / 3.0) * nf * nf * nf
	return true
}

// noteSparseRound runs the sparse→dense degradation ladder after one
// sparse refactorization. The sparse LU has no pivoting, so a
// persistently troublesome iteration matrix can defeat it where the
// partial-pivoting dense LU survives: after sparseFailLimit consecutive
// failures the solver retires the sparse path and continues dense —
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
		s.haveFactor = false
		s.opts.Log.Warn("degrade", "sparse LU demoted to dense",
			"consecutive_failures", s.sparseFails)
	}
}

// solve solves the factored iteration matrix against b into dst.
func (s *BDF) solve(dst, b []float64) error {
	if s.sparse {
		s.stats.SolveOps += float64(s.slu.SolveFlops())
		return s.slu.SolveTo(dst, b)
	}
	nf := float64(s.n)
	s.stats.SolveOps += 2 * nf * nf
	return s.lu.SolveTo(dst, b)
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
		// Step changes invalidate the factorization's h·beta.
		s.luH = math.NaN()
		s.jacFresh = false
	}
}

// push makes y the newest history point, dropping the oldest once
// maxHist are stored. y is copied into a recycled vector.
func (s *BDF) push(y []float64) {
	var v []float64
	if m := len(s.hist); m == maxHist {
		v = s.hist[m-1]
	} else {
		v = s.takeSpare()
		s.hist = s.hist[:m+1]
	}
	copy(s.hist[1:], s.hist[:len(s.hist)-1])
	copy(v, y)
	s.hist[0] = v
}

// takeSpare returns a free n-vector, allocating only while the pool
// grows to the most the solver has needed at once.
func (s *BDF) takeSpare() []float64 {
	k := len(s.spare)
	if k == 0 {
		return make([]float64, s.n)
	}
	v := s.spare[k-1]
	s.spare = s.spare[:k-1]
	return v
}

// rescaleHistory re-samples the stored history polynomial onto a grid
// with spacing ratio·h, keeping the current point fixed. The new points
// are written into spare vectors and swapped in, since each of them
// reads every old one.
func (s *BDF) rescaleHistory(ratio float64) {
	m := len(s.hist)
	if m <= 1 || ratio == 1 {
		return
	}
	// Neville interpolation: old hist[j] at x = -j, new grid at x = -i*ratio.
	var next [maxHist][]float64
	work := s.nevilleWork(m)
	for i := 1; i < m; i++ {
		next[i] = s.takeSpare()
		neville(next[i], s.hist, -float64(i)*ratio, work)
	}
	for i := 1; i < m; i++ {
		s.spare = append(s.spare, s.hist[i])
		s.hist[i] = next[i]
	}
	s.luH = math.NaN()
}

// interpolate evaluates the degree-q history polynomial at x (in units
// of h ahead of the newest point) into dst.
func (s *BDF) interpolate(q int, x float64, dst []float64) {
	m := q + 1
	if m > len(s.hist) {
		m = len(s.hist)
	}
	neville(dst, s.hist[:m], x, s.nevilleWork(m))
}

// nevilleWork returns the m-2 scratch vectors neville needs for m
// points, growing the pool on first use.
func (s *BDF) nevilleWork(m int) [][]float64 {
	for len(s.work) < m-2 {
		s.work = append(s.work, make([]float64, s.n))
	}
	return s.work
}

// neville evaluates at x, for every component c, the polynomial through
// the points (-j, rows[j][c]) and writes it to dst. It runs Neville's
// recursion once per (level, j) across all components: each component
// sees the operations of the scalar recursion in the same order, so the
// result is bit-identical to evaluating the components one by one. Level
// 1 reads the rows directly; later levels work in place in dst and
// work[:len(rows)-2], none of which may alias a row.
func neville(dst []float64, rows [][]float64, x float64, work [][]float64) {
	m := len(rows)
	if m == 1 {
		copy(dst, rows[0])
		return
	}
	var w [maxHist][]float64
	w[0] = dst
	copy(w[1:m-1], work)
	for level := 1; level < m; level++ {
		for j := 0; j < m-level; j++ {
			xj := -float64(j)
			xjl := -float64(j + level)
			lo, hi := w[j], w[j+1]
			if level == 1 {
				lo, hi = rows[j], rows[j+1]
			}
			nevilleCombine(w[j], lo, hi, x-xjl, x-xj, xj-xjl)
		}
	}
}

// nevilleCombine sets dst[c] = (a·lo[c] − b·hi[c]) / d for every c. The
// divisor is the recursion level, an exact small integer; at the powers
// of two (1, 2, 4) the reciprocal is exact too, and multiplying by it
// rounds the same real number as dividing, so the result is
// bit-identical and cheaper.
func nevilleCombine(dst, lo, hi []float64, a, b, d float64) {
	lo, hi = lo[:len(dst)], hi[:len(dst)]
	if d == 1 || d == 2 || d == 4 {
		r := 1 / d
		for c := range dst {
			dst[c] = (a*lo[c] - b*hi[c]) * r
		}
		return
	}
	for c := range dst {
		dst[c] = (a*lo[c] - b*hi[c]) / d
	}
}

// sign returns -1 for negative v and 1 otherwise.
func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}
