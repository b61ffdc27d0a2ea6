// Package rms is the Reaction Modeling Suite: a domain-specific compiler
// and parallel runtime for chemical-kinetics simulation, reproducing the
// system of "An Optimizing Compiler for Parallel Chemistry Simulations"
// (Cao, Goyal, Midkiff, Caruthers — IPPS 2007).
//
// The pipeline takes a reaction description (RDL), expands it into a
// reaction network, generates the system of ordinary differential
// equations governing the species concentrations, removes the enormous
// redundancy of the generated code with the paper's algebraic and
// common-subexpression optimizations, emits C (and an executable tape),
// and fits the kinetic rate constants to experimental data with a stiff
// ODE solver inside a bounded Levenberg–Marquardt optimizer parallelized
// over data files.
//
// Quick start:
//
//	res, err := rms.Compile(src, rms.Config{Optimize: rms.FullOptimization()})
//	...
//	ev := res.Tape.NewEvaluator()
//	ev.Eval(y, k, dy)
//
// See the examples directory for complete programs.
package rms

import (
	"rms/internal/core"
	"rms/internal/network"
	"rms/internal/opt"
)

// Result is a compiled reaction model; see core.Result.
type Result = core.Result

// Config controls compilation; see core.Config.
type Config = core.Config

// OptLevel selects how far up the optimizer's pass ladder a compile
// goes; see opt.Level.
type OptLevel = opt.Level

// Compile compiles RDL source through the full pipeline.
func Compile(src string, cfg Config) (*Result, error) {
	return core.CompileRDL(src, cfg)
}

// CompileNetwork compiles a programmatically built reaction network.
func CompileNetwork(net *network.Network, cfg Config) (*Result, error) {
	return core.CompileNetwork(net, cfg)
}

// FullOptimization returns the production optimizer configuration
// (equation simplification, distributive optimization, CSE with product
// matching, invariant hoisting).
func FullOptimization() OptLevel { return opt.Full() }

// PaperOptimization returns the paper-faithful pass set (§3.1 + Fig. 6 +
// Fig. 7) without this suite's extensions.
func PaperOptimization() OptLevel { return opt.Paper() }

// NoOptimization returns the unoptimized baseline configuration.
func NoOptimization() OptLevel { return opt.LevelNone }
