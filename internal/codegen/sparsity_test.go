package codegen

import (
	"math"
	"testing"

	"rms/internal/eqgen"
	"rms/internal/linalg"
	"rms/internal/network"
	"rms/internal/opt"
)

// chainSystem builds A -> B -> C -> ... with an extra bimolecular closing
// reaction, giving a sparse but nontrivial Jacobian.
func chainSystem(t *testing.T, n int) *eqgen.System {
	t.Helper()
	net := network.New()
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = string(rune('A' + i))
		if _, err := net.AddSpecies(names[i], "", 1.0/float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < n; i++ {
		if _, err := net.AddReaction("r"+names[i], "K_1", []string{names[i]}, []string{names[i+1]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddReaction("close", "K_2", []string{names[0], names[n-1]}, []string{names[1]}); err != nil {
		t.Fatal(err)
	}
	return eqgen.FromNetwork(net)
}

func TestTapeSparsityMatchesSymbolicJacobian(t *testing.T) {
	sys := chainSystem(t, 8)
	z := opt.Optimize(sys, opt.Full())
	prog, err := Compile(z)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := Sparsity(prog)
	tape := map[[2]int32]bool{}
	for i := range rows {
		tape[[2]int32{rows[i], cols[i]}] = true
	}
	jp, err := CompileJacobian(sys, opt.Full())
	if err != nil {
		t.Fatal(err)
	}
	// Every symbolically nonzero entry must be tape-reachable: the tape
	// analysis is structural (no cancellation), so it may only over-approximate.
	for i := range jp.Rows {
		if !tape[[2]int32{jp.Rows[i], jp.Cols[i]}] {
			t.Errorf("symbolic entry (%d,%d) missing from tape sparsity", jp.Rows[i], jp.Cols[i])
		}
	}
	if len(rows) < jp.NumEntries() {
		t.Fatalf("tape pattern %d entries < symbolic %d", len(rows), jp.NumEntries())
	}
	if d := jp.Density(); d <= 0 || d >= 1 {
		t.Fatalf("density %g outside (0,1)", d)
	}
}

func TestEvalCSRMatchesDenseJacobian(t *testing.T) {
	sys := chainSystem(t, 9)
	jp, err := CompileJacobian(sys, opt.Full())
	if err != nil {
		t.Fatal(err)
	}
	je := jp.NewEvaluator()
	n := jp.N
	y := make([]float64, n)
	for i := range y {
		y[i] = 0.2 + 0.1*float64(i)
	}
	k := []float64{1.3, 0.7}
	dense := linalg.NewMatrix(n, n)
	je.Eval(y, k, dense)
	csr := jp.PatternCSR()
	jp.NewEvaluator().EvalCSR(y, k, csr)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := csr.At(i, j), dense.At(i, j); got != want {
				t.Fatalf("J[%d,%d] = %g sparse, %g dense", i, j, got, want)
			}
		}
	}
	// The CSR pattern must include the full diagonal (iteration-matrix shape).
	for i := 0; i < n; i++ {
		if csr.Index(i, i) < 0 {
			t.Fatalf("diagonal (%d,%d) missing from PatternCSR", i, i)
		}
	}
	// Structural zeros stay exactly zero after evaluation.
	zeroes := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if csr.Index(i, j) < 0 {
				zeroes++
				if v := csr.At(i, j); v != 0 || math.Signbit(v) {
					t.Fatalf("structural zero (%d,%d) = %g", i, j, v)
				}
			}
		}
	}
	if zeroes == 0 {
		t.Fatal("test system unexpectedly dense")
	}
}
