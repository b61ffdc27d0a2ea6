package ode

import "math"

// Verner's 8-stage embedded 6(5) pair — the tableau of the classic DVERK
// code that IMSL's imsl_f_ode_runge_kutta implements. The sixth-order
// weights propagate the solution; the difference against the fifth-order
// weights estimates the local error.
var (
	rkvC = [8]float64{0, 1.0 / 6, 4.0 / 15, 2.0 / 3, 5.0 / 6, 1, 1.0 / 15, 1}
	rkvA = [8][7]float64{
		{},
		{1.0 / 6},
		{4.0 / 75, 16.0 / 75},
		{5.0 / 6, -8.0 / 3, 5.0 / 2},
		{-165.0 / 64, 55.0 / 6, -425.0 / 64, 85.0 / 96},
		{12.0 / 5, -8, 4015.0 / 612, -11.0 / 36, 88.0 / 255},
		{-8263.0 / 15000, 124.0 / 75, -643.0 / 680, -81.0 / 250, 2484.0 / 10625, 0},
		{3501.0 / 1720, -300.0 / 43, 297275.0 / 52632, -319.0 / 2322, 24068.0 / 84065, 0, 3850.0 / 26703},
	}
	rkvB6 = [8]float64{3.0 / 40, 0, 875.0 / 2244, 23.0 / 72, 264.0 / 1955, 0, 125.0 / 11592, 43.0 / 616}
	rkvB5 = [8]float64{13.0 / 160, 0, 2375.0 / 5984, 5.0 / 16, 12.0 / 85, 3.0 / 44, 0, 0}
)

// RKV65 is the Runge–Kutta–Verner 6(5) solver for non-stiff systems.
type RKV65 struct {
	f     Func
	n     int
	opts  Options
	stats Stats
	// workspace
	k    [8][]float64
	ytmp []float64
	ynew []float64
	yerr []float64
}

// NewRKV65 returns a solver for an n-dimensional system.
func NewRKV65(f Func, n int, opts Options) *RKV65 {
	s := &RKV65{f: f, n: n, opts: opts}
	for i := range s.k {
		s.k[i] = make([]float64, n)
	}
	s.ytmp = make([]float64, n)
	s.ynew = make([]float64, n)
	s.yerr = make([]float64, n)
	return s
}

// Stats returns cumulative work counters.
func (s *RKV65) Stats() Stats { return s.stats }

// Integrate advances y from t0 to t1 in place.
func (s *RKV65) Integrate(t0, t1 float64, y []float64) error {
	if len(y) != s.n {
		return errWrap(errShape(len(y), s.n), t0)
	}
	if t1 == t0 {
		return nil
	}
	o := s.opts.withDefaults(t0, t1)
	dir := 1.0
	if t1 < t0 {
		dir = -1
	}
	hMin := minStep(t0, t1)
	h := o.InitialStep * dir
	if o.FixedStep > 0 {
		h = o.FixedStep * dir
	}
	t := t0
	for steps := 0; ; steps++ {
		if steps > o.MaxSteps {
			return errWrap(ErrTooManySteps, t)
		}
		if err := o.Budget.Check(); err != nil {
			return errWrap(err, t)
		}
		if reached(t, t1, dir) {
			return nil
		}
		if (t+h-t1)*dir > 0 {
			h = t1 - t
		}
		s.step(t, h, y)
		if o.FixedStep > 0 {
			copy(y, s.ynew)
			t += h
			s.stats.Steps++
			continue
		}
		errNorm := weightedNorm(s.yerr, y, s.ynew, o.ATol, o.RTol)
		if o.Observer != nil {
			o.Observer(StepEvent{T: t, H: h, Order: 6, Accepted: errNorm <= 1, ErrNorm: errNorm})
		}
		if errNorm <= 1 {
			copy(y, s.ynew)
			t += h
			s.stats.Steps++
		} else {
			s.stats.Rejected++
		}
		// Standard step-size controller for a 6th-order pair.
		factor := 0.9 * math.Pow(math.Max(errNorm, 1e-10), -1.0/6)
		factor = math.Min(5, math.Max(0.2, factor))
		h *= factor
		if math.Abs(h) < hMin {
			return errWrap(ErrStepTooSmall, t)
		}
	}
}

// step computes one trial step of size h from (t, y), filling ynew with
// the sixth-order solution and yerr with the embedded error estimate.
func (s *RKV65) step(t, h float64, y []float64) {
	n := s.n
	s.f(t, y, s.k[0])
	s.stats.FEvals++
	for stage := 1; stage < 8; stage++ {
		copy(s.ytmp, y)
		for j := 0; j < stage; j++ {
			a := rkvA[stage][j] * h
			if a == 0 {
				continue
			}
			kj := s.k[j]
			for i := 0; i < n; i++ {
				s.ytmp[i] += a * kj[i]
			}
		}
		s.f(t+rkvC[stage]*h, s.ytmp, s.k[stage])
		s.stats.FEvals++
	}
	for i := 0; i < n; i++ {
		sum6, sum5 := 0.0, 0.0
		for stage := 0; stage < 8; stage++ {
			sum6 += rkvB6[stage] * s.k[stage][i]
			sum5 += rkvB5[stage] * s.k[stage][i]
		}
		s.ynew[i] = y[i] + h*sum6
		s.yerr[i] = h * (sum6 - sum5)
	}
}

type errShapeT struct{ got, want int }

func (e errShapeT) Error() string {
	return "ode: state vector length mismatch"
}

func errShape(got, want int) error { return errShapeT{got, want} }
