package conformance

import (
	"fmt"
	"math"
)

// ULPDiff returns the number of representable float64 values between a
// and b — the units-in-the-last-place distance. Equal values (including
// +0 vs -0) are 0 ulps apart; any NaN or infinity mismatch is +Inf.
func ULPDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return math.Inf(1)
	}
	d := orderedBits(a) - orderedBits(b)
	if d < 0 {
		d = -d
	}
	return float64(d)
}

// orderedBits maps a float64 onto a monotone int64 scale (the standard
// two's-complement trick), so ulp distance is plain subtraction.
func orderedBits(f float64) int64 {
	i := int64(math.Float64bits(f))
	if i < 0 {
		i = math.MinInt64 - i
	}
	return i
}

// maxFailures caps the failure messages kept per stage run; past the
// cap only the counters advance.
const maxFailures = 8

// Recorder accumulates the comparisons one stage makes over one case:
// the worst ulp and relative divergence seen, and the comparisons that
// exceeded tolerance.
type Recorder struct {
	MaxULP   float64
	MaxRel   float64
	Checks   int
	failures []string
	dropped  int
}

// Failed reports whether any comparison exceeded tolerance.
func (r *Recorder) Failed() bool { return len(r.failures) > 0 }

// Failures returns the recorded failure messages.
func (r *Recorder) Failures() []string { return r.failures }

// Failf records a structural failure (shape mismatches, parse errors)
// that has no numeric divergence to measure.
func (r *Recorder) Failf(format string, args ...any) {
	if len(r.failures) >= maxFailures {
		r.dropped++
		return
	}
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// CheckExact compares two values that must agree bit-for-bit (modulo
// the sign of zero): tree vs tape, dense vs CSR Jacobians and the other
// comparisons the pipeline guarantees are identical arithmetic.
func (r *Recorder) CheckExact(label string, ref, got float64) {
	r.record(ref, got)
	if ref == got || (math.IsNaN(ref) && math.IsNaN(got)) {
		return
	}
	r.Failf("%s: %v != %v (exact, %g ulp apart)", label, ref, got, ULPDiff(ref, got))
}

// CheckTol compares two values under the mixed absolute/relative
// criterion |ref-got| <= tol*(1 + max(|ref|, |got|)). NaN or infinity
// on either side fails.
func (r *Recorder) CheckTol(label string, ref, got, tol float64) {
	r.record(ref, got)
	if math.IsNaN(ref) || math.IsNaN(got) || math.IsInf(ref, 0) || math.IsInf(got, 0) {
		r.Failf("%s: non-finite pair %v vs %v", label, ref, got)
		return
	}
	if math.Abs(ref-got) > tol*(1+math.Max(math.Abs(ref), math.Abs(got))) {
		r.Failf("%s: %v vs %v exceeds tol %g (%g ulp apart)",
			label, ref, got, tol, ULPDiff(ref, got))
	}
}

func (r *Recorder) record(ref, got float64) {
	r.Checks++
	if u := ULPDiff(ref, got); u > r.MaxULP {
		r.MaxULP = u
	}
	if d := math.Abs(ref - got); d > 0 {
		rel := d / (1 + math.Max(math.Abs(ref), math.Abs(got)))
		if rel > r.MaxRel {
			r.MaxRel = rel
		}
	}
}

// CheckVec compares two equal-length vectors element-wise with CheckTol
// (or CheckExact when tol < 0).
func (r *Recorder) CheckVec(label string, ref, got []float64, tol float64) {
	if len(ref) != len(got) {
		r.Failf("%s: length %d vs %d", label, len(ref), len(got))
		return
	}
	for i := range ref {
		el := fmt.Sprintf("%s[%d]", label, i)
		if tol < 0 {
			r.CheckExact(el, ref[i], got[i])
		} else {
			r.CheckTol(el, ref[i], got[i], tol)
		}
	}
}
