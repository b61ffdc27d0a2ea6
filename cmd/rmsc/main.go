// Command rmsc is the chemical compiler: it reads a Reaction Description
// Language source file, expands the reaction network, generates the
// system of ODEs, runs the algebraic + CSE optimizer, and emits C code.
//
// Usage:
//
//	rmsc [flags] model.rdl
//
//	-o file        write the generated C here (default stdout)
//	-opt level     none | simplify | distribute | paper | products | full
//	               (default full)
//	-rcip file     rate-constant information input
//	-func name     emitted C function name (default ode_fcn)
//	-dump-network  print the reaction network (Fig. 3 form) to stderr
//	-dump-dot      print the network as Graphviz DOT to stderr
//	-dump-odes     print the ODE system (Fig. 5 form) to stderr
//	-report        print the op-count report to stderr
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rms/internal/codegen"
	"rms/internal/core"
	"rms/internal/opt"
)

func main() {
	var (
		outPath     = flag.String("o", "", "output C file (default stdout)")
		optLevel    = flag.String("opt", "full", "optimization level: "+opt.LevelNames())
		rcipPath    = flag.String("rcip", "", "rate-constant information file")
		funcName    = flag.String("func", "ode_fcn", "emitted C function name")
		dumpNetwork = flag.Bool("dump-network", false, "print the reaction network to stderr")
		dumpDOT     = flag.Bool("dump-dot", false, "print the reaction network as Graphviz DOT to stderr")
		dumpODEs    = flag.Bool("dump-odes", false, "print the ODE system to stderr")
		report      = flag.Bool("report", false, "print the op-count report to stderr")
	)
	flag.Parse()
	if err := run(*outPath, *optLevel, *rcipPath, *funcName, *dumpNetwork, *dumpDOT, *dumpODEs, *report, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "rmsc:", err)
		os.Exit(1)
	}
}

func run(outPath, optLevel, rcipPath, funcName string,
	dumpNetwork, dumpDOT, dumpODEs, report bool, args []string) error {

	var src []byte
	var err error
	switch len(args) {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(args[0])
	default:
		return fmt.Errorf("expected one source file, got %d", len(args))
	}
	if err != nil {
		return err
	}

	level, err := opt.ParseLevel(optLevel)
	if err != nil {
		return err
	}
	cfg := core.Config{Optimize: level}
	if rcipPath != "" {
		b, err := os.ReadFile(rcipPath)
		if err != nil {
			return err
		}
		cfg.RCIP = string(b)
	}

	res, err := core.CompileRDL(string(src), cfg)
	if err != nil {
		return err
	}

	if dumpNetwork {
		fmt.Fprint(os.Stderr, res.Network.Dump())
	}
	if dumpDOT {
		fmt.Fprint(os.Stderr, res.Network.DOT())
	}
	if dumpODEs {
		fmt.Fprint(os.Stderr, res.System.String())
	}
	if report {
		fmt.Fprintln(os.Stderr, res.Report())
	}

	out := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	_, err = io.WriteString(out, codegen.EmitC(res.Optimized, funcName))
	return err
}
