package integration

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rms/internal/core"
	"rms/internal/linalg"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/vulcan"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files from the current build")

const (
	goldenVariants = 10
	goldenTEnd     = 1.5
	goldenFile     = "golden_vulcan10.txt"
)

// goldenSolve integrates the 10-variant vulcanization model to t=1.5 under
// one solver configuration and returns the final concentrations.
func goldenSolve(t *testing.T, res *core.Result, k []float64, config string) []float64 {
	t.Helper()
	n := len(res.System.Y0)
	ev := res.Tape.NewEvaluator()
	opts := ode.Options{RTol: 1e-9, ATol: 1e-12}
	switch config {
	case "serial":
		// finite-difference Newton
	case "dense":
		je := res.Jacobian.NewEvaluator()
		opts.Jacobian = func(_ float64, y []float64, dst *linalg.Matrix) {
			je.Eval(y, k, dst)
		}
	case "sparse":
		je := res.Jacobian.NewEvaluator()
		opts.Jacobian = func(_ float64, y []float64, dst *linalg.Matrix) {
			je.Eval(y, k, dst)
		}
		opts.SparsePattern = res.Jacobian.PatternCSR()
		opts.SparseJacobian = func(_ float64, y []float64, dst *linalg.CSR) {
			je.EvalCSR(y, k, dst)
		}
		opts.SparseMinDim = 2
		opts.SparseThreshold = 1
	default:
		t.Fatalf("unknown config %q", config)
	}
	rhs := func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }
	s := ode.NewBDF(rhs, n, opts)
	y := append([]float64(nil), res.System.Y0...)
	if err := s.Integrate(0, goldenTEnd, y); err != nil {
		t.Fatalf("%s: %v", config, err)
	}
	if config == "sparse" && !s.Sparse() {
		t.Fatal("sparse config stayed on the dense path")
	}
	if config != "sparse" && s.Sparse() {
		t.Fatalf("%s config took the sparse path", config)
	}
	return y
}

// TestGoldenVulcanization pins the end-to-end result of the smallest
// vulcanization example: the final-time concentrations at t=1.5 are
// committed in testdata and every solver configuration — finite-difference
// Newton, dense analytic Jacobian, sparse analytic Jacobian — must
// reproduce them. Regenerate with
// `go test ./internal/integration -run Golden -update-golden` after an
// intentional numerical change, and justify the diff in review.
func TestGoldenVulcanization(t *testing.T) {
	net, err := vulcan.Network(goldenVariants)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CompileNetwork(net, core.Config{
		Optimize: opt.Full(), AnalyticJacobian: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	k, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", goldenFile)
	if *updateGolden {
		y := goldenSolve(t, res, k, "serial")
		var b strings.Builder
		fmt.Fprintf(&b, "# Final concentrations of the %d-variant vulcanization model at t=%g\n",
			goldenVariants, goldenTEnd)
		fmt.Fprintf(&b, "# (BDF, RTol 1e-9, ATol 1e-12, true rates). Regenerate with -update-golden.\n")
		for i, name := range res.System.Species {
			fmt.Fprintf(&b, "%-12s %.12e\n", name, y[i])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}

	want := readGolden(t, path, res.System.Species)
	for _, config := range []string{"serial", "dense", "sparse"} {
		y := goldenSolve(t, res, k, config)
		for i, name := range res.System.Species {
			// The golden run used 1e-9 relative tolerance; allow two orders
			// of slack for path-dependent roundoff across configurations.
			tol := 1e-7 * (1 + math.Abs(want[i]))
			if math.Abs(y[i]-want[i]) > tol {
				t.Errorf("%s: %s = %.12e, golden %.12e (diff %.3e)",
					config, name, y[i], want[i], y[i]-want[i])
			}
		}
	}
}

// readGolden loads the committed concentrations, keyed and ordered by the
// compiled system's species list.
func readGolden(t *testing.T, path string, species []string) []float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to generate)", err)
	}
	defer f.Close()
	byName := make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("golden line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		byName[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(species))
	for i, name := range species {
		v, ok := byName[name]
		if !ok {
			t.Fatalf("golden file misses species %q", name)
		}
		want[i] = v
	}
	return want
}
