package vulcan

import (
	"math"
	"testing"

	"rms/internal/codegen"
	"rms/internal/network"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/rdl"
)

func TestNetworkShape(t *testing.T) {
	n, err := Network(20)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(n.Species), 3*20+4; got != want {
		t.Errorf("species = %d, want %d", got, want)
	}
	rates := n.RateNames()
	if len(rates) != 10 {
		t.Errorf("distinct rate constants = %d, want 10 (§5.1)", len(rates))
	}
	for i, r := range rates {
		if r != rateNames[i] {
			t.Errorf("rate %d = %q, want %q", i, r, rateNames[i])
		}
	}
}

func TestNetworkTooSmall(t *testing.T) {
	if _, err := Network(4); err == nil {
		t.Error("variants < 8 accepted")
	}
}

func TestCaseEquationCounts(t *testing.T) {
	for _, c := range Cases {
		got := 3*c.PaperVariants + 4
		// Within 0.5% of the paper's equation count.
		if math.Abs(float64(got-c.PaperEquations)) > 0.005*float64(c.PaperEquations) {
			t.Errorf("%s: %d equations from %d variants, paper reports %d",
				c.Name, got, c.PaperVariants, c.PaperEquations)
		}
	}
}

func TestScissionWindow(t *testing.T) {
	n, err := Network(16)
	if err != nil {
		t.Fatal(err)
	}
	// Scission instances exist only for crosslinks of length >= 6, at
	// positions 3..min(10, n-3), two equivalent-site instances per
	// position (homolysis in either direction).
	count := map[string]int{}
	for _, r := range n.Reactions {
		if r.Rate == "K_sc" {
			count[r.Consumed[0]]++
		}
	}
	if count["XC_5"] != 0 {
		t.Errorf("C_5 has %d scissions, want 0", count["XC_5"])
	}
	if count["XC_6"] != 2 {
		t.Errorf("C_6 has %d scissions, want 2 (position 3, two sites)", count["XC_6"])
	}
	if count["XC_12"] != 14 {
		t.Errorf("C_12 has %d scissions, want 14 (positions 3..9, two sites)", count["XC_12"])
	}
	if count["XC_16"] != 16 {
		t.Errorf("C_16 has %d scissions, want 16 (positions 3..10, two sites)", count["XC_16"])
	}
}

func TestOptimizationProfile(t *testing.T) {
	// The structural point of the benchmark systems: optimization removes
	// the bulk of the arithmetic, and the reduction deepens with scale
	// (Table 1's superlinear gains).
	ratioAt := func(v int) (float64, float64) {
		sys, err := System(v)
		if err != nil {
			t.Fatal(err)
		}
		m0, a0 := sys.TotalOps()
		z := opt.Optimize(sys, opt.Full())
		m1, a1 := z.CountOps()
		t.Logf("v=%d: eqs=%d, muls %d->%d, adds %d->%d, temps=%d",
			v, sys.NumEquations(), m0, m1, a0, a1, z.NumTemps())
		return float64(m1) / float64(m0), float64(m1+a1) / float64(m0+a0)
	}
	mulSmall, allSmall := ratioAt(16)
	mulBig, allBig := ratioAt(128)
	// The optimizer keeps roughly a fifth of the arithmetic at every
	// scale on this workload; the paper's proprietary models go further
	// (6.9% at 250k equations) but show the same shape: multiplies
	// reduce much more than additions. EXPERIMENTS.md records the
	// comparison.
	if allBig > 0.30 || allSmall > 0.30 {
		t.Errorf("total op ratios = %.3f / %.3f, want under 0.30", allSmall, allBig)
	}
	if mulBig > 0.22 || mulSmall > 0.22 {
		t.Errorf("multiply ratios = %.3f / %.3f, want under 0.22", mulSmall, mulBig)
	}
}

func TestOptimizedSemanticsPreserved(t *testing.T) {
	sys, err := System(12)
	if err != nil {
		t.Fatal(err)
	}
	k, err := RateVector(sys.Rates, TrueRates)
	if err != nil {
		t.Fatal(err)
	}
	km := make(map[string]float64)
	for i, name := range sys.Rates {
		km[name] = k[i]
	}
	y := make([]float64, len(sys.Species))
	for i := range y {
		y[i] = 0.1 + 0.01*float64(i)
	}
	ref := sys.Eval(y, km)
	z := opt.Optimize(sys, opt.Full())
	prog, err := codegen.Compile(z)
	if err != nil {
		t.Fatal(err)
	}
	dy := make([]float64, len(y))
	prog.NewEvaluator().Eval(y, k, dy)
	for i := range ref {
		rel := math.Abs(ref[i]-dy[i]) / math.Max(1, math.Abs(ref[i]))
		if rel > 1e-9 {
			t.Errorf("eq %d (%s): %v vs %v", i, sys.Species[i], ref[i], dy[i])
		}
	}
}

func TestDynamicsPlausible(t *testing.T) {
	// The model integrates stably and produces a rising crosslink curve —
	// the property the experimental data files record.
	sys, err := System(10)
	if err != nil {
		t.Fatal(err)
	}
	z := opt.Optimize(sys, opt.Full())
	prog, err := codegen.Compile(z)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := RateVector(sys.Rates, TrueRates)
	ev := prog.NewEvaluator()
	rhs := func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }
	solver := ode.NewBDF(rhs, len(sys.Species), ode.Options{RTol: 1e-8, ATol: 1e-10})
	y := append([]float64(nil), sys.Y0...)
	prop := CrosslinkProperty(sys)
	if prop(y) != 0 {
		t.Fatalf("initial crosslink concentration = %v, want 0", prop(y))
	}
	if err := solver.Integrate(0, 2, y); err != nil {
		t.Fatal(err)
	}
	mid := prop(y)
	if mid <= 0 {
		t.Errorf("crosslinks after cure onset = %v, want > 0", mid)
	}
	for i, v := range y {
		if v < -1e-6 || math.IsNaN(v) {
			t.Errorf("species %s went to %v", sys.Species[i], v)
		}
	}
}

func TestCrosslinkIndices(t *testing.T) {
	sys, err := System(9)
	if err != nil {
		t.Fatal(err)
	}
	idx := CrosslinkIndices(sys)
	if len(idx) != 9 {
		t.Errorf("crosslink indices = %d, want 9", len(idx))
	}
	for _, i := range idx {
		if sys.Species[i][:2] != "XC" {
			t.Errorf("index %d is %s", i, sys.Species[i])
		}
	}
}

func TestRateVectorErrors(t *testing.T) {
	if _, err := RateVector([]string{"K_missing"}, TrueRates); err == nil {
		t.Error("missing rate accepted")
	}
}

func TestRDLSourceParsesAndGenerates(t *testing.T) {
	for _, tc := range []struct{ variants, species int }{{8, 28}, {10, 36}, {26, 100}} {
		prog, err := rdl.Parse(RDLSource(tc.variants))
		if err != nil {
			t.Fatalf("variants=%d: RDL source does not parse: %v", tc.variants, err)
		}
		net, err := network.Generate(prog)
		if err != nil {
			t.Fatalf("variants=%d: network generation: %v", tc.variants, err)
		}
		if len(net.Species) != tc.species || len(net.Reactions) == 0 {
			t.Errorf("variants=%d: network has %d species and %d reactions, want %d species",
				tc.variants, len(net.Species), len(net.Reactions), tc.species)
		}
	}
}

func TestTrueRatesCoverAllNames(t *testing.T) {
	if len(TrueRates) != len(rateNames) {
		t.Fatalf("TrueRates has %d entries, rateNames %d", len(TrueRates), len(rateNames))
	}
	for _, name := range rateNames {
		v, ok := TrueRates[name]
		if !ok {
			t.Errorf("no true value for %s", name)
		}
		if v <= 0 {
			t.Errorf("%s = %v, want positive", name, v)
		}
	}
	// RateNames returns a copy in sorted order.
	ns := RateNames()
	ns[0] = "tampered"
	if rateNames[0] == "tampered" {
		t.Error("RateNames exposes internal slice")
	}
}
