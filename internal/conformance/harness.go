package conformance

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"rms/internal/network"
	"rms/internal/opt"
	"rms/internal/telemetry"
)

// Config shapes a harness run.
type Config struct {
	// Seed seeds the model generator; each case derives its own RNG
	// from Seed and the case index, so runs are reproducible and cases
	// are independent.
	Seed int64
	// N is the number of random models to push through the matrix.
	N int
	// Size is the nominal species count; actual case sizes vary around
	// it (Size/2 .. 3·Size/2). Minimum effective size is 6.
	Size int
	// Stages selects a comma-separated subset of the matrix ("" or
	// "all" runs everything; see StageNames).
	Stages string
	// Tol is the relative tolerance for the tree-rewrite comparisons
	// (simplify/distribute/CSE/hoist reorder floating-point reductions).
	// Zero means the default 1e-9. Stages with stronger guarantees
	// ignore it: tape, ccomp, permute and dense-vs-CSR demand
	// exact agreement, and the solver-level stages use their own
	// integration tolerances.
	Tol float64
	// Registry receives per-stage counters and divergence gauges; nil
	// disables telemetry (the registry API is nil-safe).
	Registry *telemetry.Registry
	// Mutate, when non-nil, corrupts the CSE-bearing optimizer variants
	// of every case (see MutateCSE) — the fault-injection hook the
	// harness's own tests use to prove miscompiles are caught.
	Mutate func(*opt.Optimized)
	// ShrinkDir, when non-empty, receives minimal reproducer files for
	// failing cases (one per failing stage, first failure wins). The
	// directory is created on demand.
	ShrinkDir string
	// Log, when non-nil, receives per-case progress lines.
	Log io.Writer
}

// StageSummary aggregates one stage across every case.
type StageSummary struct {
	Name  string
	Desc  string
	Cases int
	// Checks counts individual value comparisons.
	Checks int
	// Failures counts cases with at least one out-of-tolerance
	// comparison.
	Failures int
	// MaxULP and MaxRel are the worst divergences seen across all
	// cases, including passing ones — the headline "how far from
	// bit-identical is the pipeline" number.
	MaxULP float64
	MaxRel float64
	// FirstFailure holds the first recorded failure message.
	FirstFailure string
	// Reproducer is the path of the shrunken counterexample, when one
	// was written.
	Reproducer string
	// ReproducerSpecies is the species count of the shrunken network.
	ReproducerSpecies int
}

// Summary is the outcome of a harness run.
type Summary struct {
	Models int
	Stages []StageSummary
}

// OK reports whether every stage passed every case.
func (s *Summary) OK() bool {
	for _, st := range s.Stages {
		if st.Failures > 0 {
			return false
		}
	}
	return true
}

// Failures sums stage failures.
func (s *Summary) Failures() int {
	total := 0
	for _, st := range s.Stages {
		total += st.Failures
	}
	return total
}

// DefaultTol is the relative tolerance for tree-rewrite comparisons.
const DefaultTol = 1e-9

// Run executes the conformance matrix over N seeded random models and
// aggregates per-stage results. Infrastructure errors (a stage unable
// to run at all) abort the run; semantic divergences are recorded,
// shrunk and summarized.
func Run(cfg Config) (*Summary, error) {
	if cfg.N <= 0 {
		cfg.N = 10
	}
	if cfg.Size <= 0 {
		cfg.Size = 10
	}
	if cfg.Tol <= 0 {
		cfg.Tol = DefaultTol
	}
	stages, err := SelectStages(cfg.Stages)
	if err != nil {
		return nil, err
	}
	sum := &Summary{Stages: make([]StageSummary, len(stages))}
	for i, st := range stages {
		sum.Stages[i] = StageSummary{Name: st.Name, Desc: st.Desc}
	}

	for ci := 0; ci < cfg.N; ci++ {
		caseSeed := cfg.Seed + int64(ci)*1_000_003
		rng := rand.New(rand.NewSource(caseSeed))
		base := cfg.Size
		if base < 6 {
			base = 6
		}
		n := base/2 + rng.Intn(base+1)
		if n < 4 {
			n = 4
		}
		opts := GenOptions{Conservative: ci%4 == 3}
		net := RandomNetworkOpts(rng, n, opts)
		cs, err := NewCase(net, caseSeed, cfg.Mutate)
		if err != nil {
			return nil, fmt.Errorf("case %d: %w", ci, err)
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "case %d: %d species, %d reactions (seed %d, conservative=%v)\n",
				ci, len(net.Species), len(net.Reactions), caseSeed, opts.Conservative)
		}
		sum.Models++
		for si, st := range stages {
			rec := &Recorder{}
			if err := st.Run(cs, rec, cfg.Tol); err != nil {
				return nil, fmt.Errorf("case %d stage %s: %w", ci, st.Name, err)
			}
			agg := &sum.Stages[si]
			agg.Cases++
			agg.Checks += rec.Checks
			if rec.MaxULP > agg.MaxULP {
				agg.MaxULP = rec.MaxULP
			}
			if rec.MaxRel > agg.MaxRel {
				agg.MaxRel = rec.MaxRel
			}
			if !rec.Failed() {
				continue
			}
			agg.Failures++
			if agg.FirstFailure == "" {
				agg.FirstFailure = fmt.Sprintf("case %d: %s", ci, rec.Failures()[0])
			}
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "  FAIL %s: %s\n", st.Name, rec.Failures()[0])
			}
			if agg.Reproducer == "" && st.Shrinkable {
				min := shrinkCase(cs, st, cfg)
				agg.ReproducerSpecies = len(min.Species)
				if cfg.ShrinkDir != "" {
					path, werr := writeReproducer(cfg.ShrinkDir, st.Name, cfg.Seed, ci, min)
					if werr != nil {
						return nil, werr
					}
					agg.Reproducer = path
					if cfg.Log != nil {
						fmt.Fprintf(cfg.Log, "  shrunk to %d species, %d reactions: %s\n",
							len(min.Species), len(min.Reactions), path)
					}
				}
			}
		}
	}
	publish(cfg.Registry, sum)
	return sum, nil
}

// shrinkCase delta-debugs a failing case's network against one stage.
func shrinkCase(cs *Case, st Stage, cfg Config) *network.Network {
	pred := func(cand *network.Network) bool {
		c2, err := NewCase(cand, cs.Seed, cfg.Mutate)
		if err != nil {
			return false
		}
		rec := &Recorder{}
		if err := st.Run(c2, rec, cfg.Tol); err != nil {
			return false
		}
		return rec.Failed()
	}
	return Shrink(cs.Net, pred)
}

func writeReproducer(dir, stage string, seed int64, ci int, net *network.Network) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("conformance: shrink dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("repro_%s_seed%d_case%d.net", stage, seed, ci))
	if err := WriteNetworkFile(path, net); err != nil {
		return "", fmt.Errorf("conformance: write reproducer: %w", err)
	}
	return path, nil
}

// ReplayFile re-runs one stage (or the whole matrix for stages == "")
// against a reproducer file, returning the per-stage recorders. Useful
// from tests and from debugging sessions over checked-in reproducers.
func ReplayFile(path string, stagesSpec string, mutate func(*opt.Optimized)) (map[string]*Recorder, error) {
	net, err := ReadNetworkFile(path)
	if err != nil {
		return nil, err
	}
	stages, err := SelectStages(stagesSpec)
	if err != nil {
		return nil, err
	}
	cs, err := NewCase(net, 1, mutate)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Recorder, len(stages))
	for _, st := range stages {
		rec := &Recorder{}
		if err := st.Run(cs, rec, DefaultTol); err != nil {
			return nil, fmt.Errorf("replay %s: %w", st.Name, err)
		}
		out[st.Name] = rec
	}
	return out, nil
}

// publish pushes the summary into the telemetry registry: per-stage
// case/check/failure counters and max-divergence gauges.
func publish(reg *telemetry.Registry, sum *Summary) {
	if reg == nil {
		return
	}
	for _, st := range sum.Stages {
		prefix := "conformance." + st.Name
		reg.Counter(prefix + ".cases").Add(int64(st.Cases))
		reg.Counter(prefix + ".checks").Add(int64(st.Checks))
		reg.Counter(prefix + ".failures").Add(int64(st.Failures))
		reg.Gauge(prefix + ".max_ulp").Set(st.MaxULP)
		reg.Gauge(prefix + ".max_rel").Set(st.MaxRel)
	}
	reg.Counter("conformance.models").Add(int64(sum.Models))
}
