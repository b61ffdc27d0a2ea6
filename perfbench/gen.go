package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"rms/internal/network"
	"rms/internal/service"
	"rms/internal/vulcan"
)

// Every generator below draws from its own rand.Rand seeded from the
// workload seed, so one seed always yields byte-identical inputs and
// the program only ever sees the generated specs. Sizes are stratified
// (each round covers the same size grid in a seeded order, with seeded
// details) so that a round's median cost barely depends on the seed.

// rdlSource renders the benchmark's RDL template: a family of
// dimethyl polysulfide chains Chain_1..Chain_n, their thiyl radicals,
// a long feed chain, and a methyl capping radical. Reactions:
//   - Scission: every chain breaks at S–S bonds at least w sulfurs
//     from either end (a forall window under a require guard);
//   - FeedCut: the feed chain breaks anywhere into two thiyls;
//   - Cap: a thiyl and a methyl cap to a chain, with a reverse rate;
//   - Recombine: two thiyls join into a longer chain.
//
// init perturbs the initial concentrations so that otherwise equal
// programs are distinct sources (distinct cache keys).
//
// vulcan.RDLSource cannot serve here: its Seed species canonicalizes
// identically to Accel_1, so network.Generate rejects it at every size.
func rdlSource(n, w int, forbid bool, init float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench polysulfide model: n=%d window=%d\n", n, w)
	fmt.Fprintf(&b, "species Chain{n=1..%d} = \"C\" + \"S\"*n + \"C\" init 0.0\n", n)
	fmt.Fprintf(&b, "species Feed = \"C\" + \"S\"*%d + \"C\" init %.4f\n", n+1, init)
	fmt.Fprintf(&b, "species Thiyl{n=1..%d} = \"C\" + \"S\"*(n-1) + \"[S]\" init 0.0\n", n)
	fmt.Fprintf(&b, "species Methyl = \"[CH3:1]\" init %.4f\n", init/2)
	fmt.Fprintf(&b, `reaction Scission {
    reactants Chain{n}
    require   n >= %d
    forall    i = %d .. n-%d
    disconnect 1:S[i] 1:S[i+1]
    rate K_sc
}
reaction FeedCut {
    reactants Feed
    forall    i = 1 .. %d
    disconnect 1:S[i] 1:S[i+1]
    rate K_feed
}
reaction Cap {
    reactants Thiyl{n}, Methyl
    connect   1:S[n] 2:1
    rate K_cap reverse K_capr
}
reaction Recombine {
    reactants Thiyl{a}, Thiyl{b}
    require   a + b <= %d
    connect   1:S[a] 2:S[b]
    rate K_rec
}
`, 2*w, w, w, n, n)
	if forbid {
		b.WriteString("forbid \"S\"\n")
	}
	return b.String()
}

// compileRound returns one round of the compile workload: 8 RDL
// programs with chain lengths 8..15 and 8 vulcanization networks with
// 12..35 variants and site redundancy 1..3, in a seeded order. RDL
// compiles spend their time in network.Generate (chem canonicalization);
// network-text compiles skip it and spend theirs in the Jacobian
// compile, so the two halves move under different layers.
func compileRound(seed int64) ([]service.ModelSpec, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x636f6d70))
	var specs []service.ModelSpec
	for i, n := range rng.Perm(8) {
		src := rdlSource(8+n, 1+rng.Intn(2), i%4 == 0, 0.5+rng.Float64())
		specs = append(specs, service.ModelSpec{Kind: service.KindRDL, Source: src})
	}
	scales := rng.Perm(8)
	for i, v := range rng.Perm(8) {
		net, err := vulcan.NetworkWithRedundancy(12+3*v+rng.Intn(3), 1+scales[i]%3)
		if err != nil {
			return nil, err
		}
		specs = append(specs, service.ModelSpec{Kind: service.KindNet, Source: network.FormatText(net)})
	}
	rng.Shuffle(len(specs), func(a, b int) { specs[a], specs[b] = specs[b], specs[a] })
	return specs, nil
}

// Fit workload shape: rmsrun's defaults (3 free constants, the rest
// pinned at truth, relative FD step 1e-4) at one stated tolerance,
// ranks = 2 with load balancing.
const (
	fitRTol    = 1e-9
	fitATol    = 1e-12
	fitRelStep = 1e-4
	fitRanks   = 2
	// fitLMTol is the optimizer's convergence tolerance (FitRequest.Tol).
	fitLMTol = 1e-7
	// fitTol is the largest relative error a free constant may land
	// at. Data is synthesized noise-free at a tighter solver tolerance,
	// so a converged fit lands well inside it.
	fitTol = 1e-2
)

// fitFile is one synthetic experiment: records evenly spaced over
// (0, tEnd].
type fitFile struct {
	Records int
	TEnd    float64
}

// fitSpec is one fit request before its data is synthesized.
type fitSpec struct {
	Variants int
	Files    []fitFile
	// Free lists the indices (into vulcan.RateNames order) of the
	// constants left free; the rest are pinned to truth.
	Free []int
	// Start holds the start factor (start = truth × factor) per free
	// constant.
	Start []float64
}

// fitOps returns the fit workload's operation list: 12 fits over 12-,
// 13- and 14-variant models, cycled. Each model has its own four data
// files with ramped record counts and cure depths, shared by every fit
// of that model. The free sets are the triples of four seeded
// permutations of the ten constants, so every constant is free in three
// or four fits. K_init and K_mat describe the same reaction
// (rubber + accelerator → pendant) and are identifiable only as a sum,
// so they never share a free set.
func fitOps(seed int64) []fitSpec {
	rng := rand.New(rand.NewSource(seed ^ 0x666974))
	names := vulcan.RateNames()
	idx := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		panic("unknown rate " + name)
	}
	iInit, iMat := idx("K_init"), idx("K_mat")
	var sets [][]int
	for len(sets) < 12 {
		perm := rng.Perm(len(names))
		ok := true
		for s := 0; s < 3; s++ {
			if set := perm[3*s : 3*s+3]; contains(set, iInit) && contains(set, iMat) {
				ok = false
			}
		}
		if ok {
			sets = append(sets, perm[0:3], perm[3:6], perm[6:9])
		}
	}
	files := make([][]fitFile, 3)
	for m := range files {
		base := 16 + rng.Intn(4)
		for f := 0; f < 4; f++ {
			// Later files cost more, and the long windows make the slow
			// constants (reversion, desulfuration, pendant decay)
			// identifiable.
			files[m] = append(files[m], fitFile{
				Records: base * (f + 2) / 2,
				TEnd:    2 + 2*float64(f) + 0.2*rng.Float64(),
			})
		}
	}
	var specs []fitSpec
	for i, set := range sets {
		sp := fitSpec{Variants: 12 + i%3, Files: files[i%3], Free: set}
		for range sp.Free {
			// Start 8..15 % below or above truth: close enough that LM
			// converges in a few iterations for every free set, so a
			// fit's cost depends little on which constants are free.
			f := 1.08 + 0.07*rng.Float64()
			if rng.Intn(2) == 0 {
				f = 1 / f
			}
			sp.Start = append(sp.Start, f)
		}
		specs = append(specs, sp)
	}
	return specs
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Serve workload shape: rmsd's defaults (queue 16, 2 workers) and a mix
// of 80 % simulates, 15 % compiles of cached specs and 5 % compiles of
// new small specs.
const (
	serveModels  = 6
	serveBlock   = 20 // one block holds 16 simulates, 3 hits and 1 miss
	serveSims    = 16
	serveHits    = 3
	serveSimPool = 96 // distinct simulate requests the mix draws from
	// serveRate is the open loop's Poisson arrival rate (requests per
	// second), fixed once at about an eighth of the first commit's
	// capacity_rps (100 to 135/s on a 2-vCPU host): at half of capacity
	// queueing amplified the host's CPU-steal bursts so much that the
	// open-loop median moved by half between runs.
	serveRate = 16.0
)

// serveReq is one request of the serve mix.
type serveReq struct {
	Kind string // "simulate", "compile_hit" or "compile_miss"
	// Sim indexes the simulate pool (simulate only).
	Sim int
	// Spec is the model spec to compile (compile kinds only).
	Spec service.ModelSpec
}

// serveSim is one distinct simulate request against a set-up model.
type serveSim struct {
	Model int
	Req   service.SimulateRequest
}

// serveInputs holds everything the serve workload submits.
type serveInputs struct {
	Models []service.ModelSpec
	Sims   []serveSim
	// Open is the open-loop request list with its due offsets
	// (seconds from phase start); Closed the closed-loop list.
	Open    []serveReq
	Due     []float64
	Closed  []serveReq
	missSeq int
}

// serveMix builds the serve inputs: six vulcanization models of 10..20
// variants compiled in set-up; a pool of 96 simulates (every model on
// both the dense default and the sparse Newton path, 20..209 points,
// seeded horizons and rate perturbations); and the request lists.
func serveMix(seed int64, nOpen, nClosed int) serveInputs {
	rng := rand.New(rand.NewSource(seed ^ 0x7365727665))
	in := serveInputs{}
	for m := 0; m < serveModels; m++ {
		in.Models = append(in.Models, service.ModelSpec{Kind: service.KindVulcan, Variants: 10 + 2*m})
	}
	for s := 0; s < serveSimPool; s++ {
		rates := make(map[string]float64, len(vulcan.TrueRates))
		for _, name := range vulcan.RateNames() {
			rates[name] = vulcan.TrueRates[name] * math.Exp(0.1*(2*rng.Float64()-1))
		}
		// Every model on both Newton paths at eight point counts
		// spread over 20..209, so the pool's service times form a
		// smooth distribution whose median barely moves with the seed.
		model, sparse, level := s%serveModels, (s/serveModels)%2 == 1, s/(2*serveModels)
		in.Sims = append(in.Sims, serveSim{
			Model: model,
			Req: service.SimulateRequest{
				TEnd:   2 + 0.2*rng.Float64(),
				Points: 20 + 26*level + rng.Intn(8),
				Sparse: sparse,
				Rates:  rates,
			},
		})
	}
	in.Open = in.requests(rng, nOpen)
	t := 0.0
	for range in.Open {
		t += rng.ExpFloat64() / serveRate
		in.Due = append(in.Due, t)
	}
	in.Closed = in.requests(rng, nClosed)
	return in
}

// requests draws n requests in blocks of 20 with exactly 16 simulates,
// 3 cached compiles and 1 new compile per block, shuffled. Simulates
// walk seeded permutations of the pool, so every 96 of them cover the
// pool once.
func (in *serveInputs) requests(rng *rand.Rand, n int) []serveReq {
	var out []serveReq
	var sims []int
	for len(out) < n {
		block := make([]serveReq, 0, serveBlock)
		for i := 0; i < serveSims; i++ {
			if len(sims) == 0 {
				sims = rng.Perm(serveSimPool)
			}
			block = append(block, serveReq{Kind: "simulate", Sim: sims[0]})
			sims = sims[1:]
		}
		for i := 0; i < serveHits; i++ {
			block = append(block, serveReq{Kind: "compile_hit", Spec: in.Models[rng.Intn(serveModels)]})
		}
		in.missSeq++
		src := rdlSource(5+rng.Intn(3), 1, false, 0.5+float64(in.missSeq)*1e-3+rng.Float64()*1e-4)
		block = append(block, serveReq{Kind: "compile_miss", Spec: service.ModelSpec{Kind: service.KindRDL, Source: src}})
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		out = append(out, block...)
	}
	return out[:n]
}
