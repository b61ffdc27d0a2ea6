package bench

import (
	"fmt"
	"testing"

	"rms/internal/codegen"
	"rms/internal/core"
	"rms/internal/network"
	"rms/internal/opt"
	"rms/internal/rdl"
	"rms/internal/vulcan"
)

// polysulfideRDL is a polysulfide family of the compile workload's shape:
// dimethyl chains Chain_1..Chain_12 and their thiyl radicals, a feed
// chain cut anywhere, methyl capping with a reverse rate, and thiyl
// recombination. Every product structure is canonicalized, so network
// generation time is mostly canonical labelling.
const polysulfideRDL = `
species Chain{n=1..12} = "C" + "S"*n + "C" init 0.0
species Feed = "C" + "S"*13 + "C" init 1.0
species Thiyl{n=1..12} = "C" + "S"*(n-1) + "[S]" init 0.0
species Methyl = "[CH3:1]" init 0.5
reaction Scission {
    reactants Chain{n}
    require   n >= 4
    forall    i = 2 .. n-2
    disconnect 1:S[i] 1:S[i+1]
    rate K_sc
}
reaction FeedCut {
    reactants Feed
    forall    i = 1 .. 12
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
    require   a + b <= 12
    connect   1:S[a] 2:S[b]
    rate K_rec
}
`

// BenchmarkCompileRDL times network generation, the RDL half of an
// uncached compile:
//
//	go test -run '^$' -bench CompileRDL ./internal/bench/
func BenchmarkCompileRDL(b *testing.B) {
	prog, err := rdl.Parse(polysulfideRDL)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := network.Generate(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileNetwork times a whole network-text compile at the
// production level: equation generation, the optimizer, the tape, the C
// kernel and the analytic Jacobian:
//
//	go test -run '^$' -bench CompileNetwork ./internal/bench/
func BenchmarkCompileNetwork(b *testing.B) {
	for _, v := range []int{35, 250} {
		net, err := vulcan.Network(v)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.Config{Optimize: opt.Full(), AnalyticJacobian: true}
		b.Run(fmt.Sprintf("variants=%d", v), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.CompileNetwork(net, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileJacobian times the analytic Jacobian compile
// (differentiation, optimizer, tape) of the vulcanization network, the
// network-text half of an uncached compile:
//
//	go test -run '^$' -bench CompileJacobian ./internal/bench/
func BenchmarkCompileJacobian(b *testing.B) {
	for _, v := range []int{35, 250} {
		sys, err := vulcan.System(v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("variants=%d", v), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codegen.CompileJacobian(sys, opt.Full()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
