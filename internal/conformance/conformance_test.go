package conformance

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rms/internal/telemetry"
)

// TestHarnessPasses runs the full matrix over a handful of seeded
// models: a healthy pipeline must show zero divergences.
func TestHarnessPasses(t *testing.T) {
	reg := telemetry.NewRegistry()
	sum, err := Run(Config{Seed: 7, N: 5, Size: 8, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.OK() {
		for _, st := range sum.Stages {
			if st.Failures > 0 {
				t.Errorf("stage %s: %d failures (first: %s)", st.Name, st.Failures, st.FirstFailure)
			}
		}
	}
	if sum.Models != 5 {
		t.Errorf("models = %d, want 5", sum.Models)
	}
	for _, st := range sum.Stages {
		if st.Cases != 5 {
			t.Errorf("stage %s ran %d cases, want 5", st.Name, st.Cases)
		}
		if st.Name != "conserve" && st.Checks == 0 {
			t.Errorf("stage %s made no checks", st.Name)
		}
	}
	// Telemetry reflects the run.
	if got := reg.Counter("conformance.models").Value(); got != 5 {
		t.Errorf("telemetry models counter = %d", got)
	}
	if got := reg.Counter("conformance.tape.cases").Value(); got != 5 {
		t.Errorf("telemetry tape cases counter = %d", got)
	}
}

// TestBrokenCSECaught is the acceptance scenario: a deliberately
// corrupted CSE pass must be detected, and the failing case must shrink
// to a reproducer under 10 species that replays.
func TestBrokenCSECaught(t *testing.T) {
	dir := t.TempDir()
	sum, err := Run(Config{
		Seed: 1, N: 3, Size: 10,
		Stages:    "cse",
		Mutate:    MutateCSE,
		ShrinkDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK() {
		t.Fatal("mutated CSE pass was not caught")
	}
	st := sum.Stages[0]
	if st.Failures == 0 {
		t.Fatal("cse stage recorded no failures")
	}
	if st.Reproducer == "" {
		t.Fatal("no reproducer written")
	}
	if st.ReproducerSpecies >= 10 {
		t.Errorf("shrunk reproducer has %d species, want < 10", st.ReproducerSpecies)
	}
	// The reproducer replays: mutated run fails, healthy run passes.
	recs, err := ReplayFile(st.Reproducer, "cse", MutateCSE)
	if err != nil {
		t.Fatal(err)
	}
	if !recs["cse"].Failed() {
		t.Errorf("reproducer %s does not reproduce under mutation", st.Reproducer)
	}
	recs, err = ReplayFile(st.Reproducer, "cse", nil)
	if err != nil {
		t.Fatal(err)
	}
	if recs["cse"].Failed() {
		t.Errorf("reproducer %s fails even without mutation", st.Reproducer)
	}
}

// The checked-in reproducer (written by an earlier shrink run) keeps
// replaying: a regression here means the pipeline or the reproducer
// format drifted.
func TestCheckedInReproducerReplays(t *testing.T) {
	path := filepath.Join("testdata", "repro_cse_mutation.net")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checked-in reproducer missing: %v", err)
	}
	recs, err := ReplayFile(path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, rec := range recs {
		if rec.Failed() {
			t.Errorf("healthy pipeline fails stage %s on reproducer: %s", name, rec.Failures()[0])
		}
	}
	recs, err = ReplayFile(path, "cse", MutateCSE)
	if err != nil {
		t.Fatal(err)
	}
	if !recs["cse"].Failed() {
		t.Error("mutated CSE pass not caught on checked-in reproducer")
	}
}

func TestSelectStages(t *testing.T) {
	all, err := SelectStages("")
	if err != nil || len(all) != len(Stages) {
		t.Fatalf("empty spec: %d stages, err %v", len(all), err)
	}
	two, err := SelectStages("tape, jacobian")
	if err != nil || len(two) != 2 || two[0].Name != "tape" || two[1].Name != "jacobian" {
		t.Fatalf("subset spec: %+v, err %v", two, err)
	}
	if _, err := SelectStages("nope"); err == nil {
		t.Fatal("unknown stage accepted")
	}
}

func TestRateValueDeterministicAndBounded(t *testing.T) {
	for _, name := range []string{"K_1", "K_2", "K_sc", "K_cap", "weird"} {
		v := RateValue(name)
		if v != RateValue(name) {
			t.Errorf("RateValue(%q) not deterministic", name)
		}
		if v < 0.5 || v >= 2.5 {
			t.Errorf("RateValue(%q) = %v out of [0.5, 2.5)", name, v)
		}
	}
	if RateValue("K_1") == RateValue("K_2") {
		t.Error("distinct names hash to the same rate")
	}
}

func TestULPDiff(t *testing.T) {
	if d := ULPDiff(1.0, 1.0); d != 0 {
		t.Errorf("equal values: %v ulp", d)
	}
	if d := ULPDiff(0.0, math.Copysign(0, -1)); d != 0 {
		t.Errorf("signed zeros: %v ulp", d)
	}
	if d := ULPDiff(1.0, math.Nextafter(1.0, 2)); d != 1 {
		t.Errorf("adjacent values: %v ulp", d)
	}
	if d := ULPDiff(-1.0, math.Nextafter(-1.0, 0)); d != 1 {
		t.Errorf("adjacent negatives: %v ulp", d)
	}
	if d := ULPDiff(1.0, math.NaN()); !math.IsInf(d, 1) {
		t.Errorf("NaN: %v", d)
	}
}

// The generator is deterministic in (seed, size) and conservative mode
// really produces conserving networks.
func TestGenerator(t *testing.T) {
	a := RandomNetwork(rand.New(rand.NewSource(3)), 9)
	b := RandomNetwork(rand.New(rand.NewSource(3)), 9)
	if FormatNetwork(a) != FormatNetwork(b) {
		t.Error("generator not deterministic")
	}
	if len(a.Species) != 9 || len(a.Reactions) != 3*9 {
		t.Errorf("profile: %d species, %d reactions", len(a.Species), len(a.Reactions))
	}
	cons := RandomNetworkOpts(rand.New(rand.NewSource(4)), 8, GenOptions{Conservative: true})
	if laws := cons.ConservationLaws(); len(laws) == 0 {
		t.Error("conservative network has no conservation law")
	}
}

func TestMutateCSENoTemps(t *testing.T) {
	// MutateCSE must be a no-op on a variant with no temporaries so
	// shrinking converges on networks that still share a subexpression.
	net := RandomNetwork(rand.New(rand.NewSource(1)), 4)
	cs, err := NewCase(net, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := cs.Raw
	MutateCSE(raw) // no temps: must not panic or change anything
	if len(raw.Temps) != 0 {
		t.Error("mutation invented temps")
	}
}

// Verbose logging goes to the configured writer.
func TestRunLogs(t *testing.T) {
	var sb strings.Builder
	if _, err := Run(Config{Seed: 2, N: 1, Size: 6, Stages: "tape", Log: &sb}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "case 0:") {
		t.Errorf("log output missing: %q", sb.String())
	}
}
