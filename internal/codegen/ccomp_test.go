package codegen_test

import (
	"testing"

	"rms/internal/ccomp"
	"rms/internal/codegen"
	"rms/internal/opt"
	"rms/internal/vulcan"
)

// kernel is a hand-written C kernel with the operators the chemical
// compiler never emits: subtraction, division and negation.
const kernel = `void f(int neq, double t, double y[], double k[], double yprime[])
{
    double temp[3];
    temp[0] = k[0]*y[0] - k[1]*y[1];
    temp[1] = temp[0] / (y[0] + y[2]);
    temp[2] = -(temp[1] - y[1]/k[2]);
    yprime[0] = -temp[0];
    yprime[1] = temp[2] / 3.0 - y[1]/k[2];
    yprime[2] = temp[0]*temp[1] - temp[2];
}
`

// TestRunTapeMatchesReferenceCcomp: tapes lowered by the C front end —
// the hand kernel, and the C the chemical compiler emits for a
// vulcanization model, at -O0 and with value numbering at -O4 — evaluate
// bit for bit as the reference interpreter does.
func TestRunTapeMatchesReferenceCcomp(t *testing.T) {
	sys, err := vulcan.System(12)
	if err != nil {
		t.Fatal(err)
	}
	z := opt.Optimize(sys, opt.Full())
	sources := map[string]string{"kernel": kernel, "vulcan12": codegen.EmitC(z, "ode_fcn")}
	for name, src := range sources {
		for _, level := range []int{0, 4} {
			res, err := ccomp.Compile(src, ccomp.Options{Level: level})
			if err != nil {
				t.Fatal(err)
			}
			p := res.Program
			y := make([]float64, p.NumY)
			for i := range y {
				y[i] = 0.25 + 0.125*float64(i%7)
			}
			k := make([]float64, p.NumK)
			for i := range k {
				k[i] = 0.5 + 0.0625*float64(i)
			}
			codegen.CheckAgainstReference(t, name, p, p.NewEvaluator(), y, k)
		}
	}
}
