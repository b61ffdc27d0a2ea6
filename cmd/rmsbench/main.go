// Command rmsbench regenerates the paper's evaluation tables.
//
// Usage:
//
//	rmsbench -table 1            # Table 1, scaled sizes with timing
//	rmsbench -table 1 -full      # Table 1, paper-scale op counts (slow)
//	rmsbench -table 2            # Table 2, parallel speedup sweep
//	rmsbench -sparse             # dense vs sparse Jacobian build+factor
//	rmsbench -sparse -variants 1000  # same, one custom system size
//	rmsbench -ablate             # optimizer-pass ablation study
//	rmsbench -sweep              # workload-redundancy sensitivity sweep
//	rmsbench -faults             # recovery overhead under injected faults
//	rmsbench -faults -rate 0.2   # same, with 20% transient solve failures
//	rmsbench -skew               # load-balancer scaling on skewed workloads
//	rmsbench -skew -ranks 4      # same, 4 ranks instead of 8
//
// Output and observability:
//
//	-json         emit the selected results as one JSON document on
//	              stdout (for per-PR BENCH_*.json trajectory files);
//	              includes a telemetry snapshot for the estimator-driven
//	              benches, and moves human-readable summaries to stderr
//	-trace f, -metrics, -pprof addr, -cpuprofile f
//	-listen addr  serve the live introspection endpoints while benches run
//	-log level    mirror flight-recorder events at this level to stderr
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rms/internal/bench"
	"rms/internal/introspect"
	"rms/internal/telemetry"
)

// benchConfig selects which benches run and how they report.
type benchConfig struct {
	table                                     int
	full, ablate, sweep, sparse, faults, skew bool
	rate                                      float64
	variants, evalMs, ranks                   int
	jsonOut                                   bool
	obs                                       telemetry.CLI
}

// report is the -json document: one optional section per bench, plus the
// telemetry snapshot accumulated by the estimator-driven benches.
type report struct {
	Table1   []bench.Table1Row       `json:"table1,omitempty"`
	Table2   []bench.Table2Row       `json:"table2,omitempty"`
	Sparse   []bench.SparseRow       `json:"sparse,omitempty"`
	Faults   []bench.FaultsRow       `json:"faults,omitempty"`
	Skew     []bench.SkewRow         `json:"skew,omitempty"`
	Ablation *ablationReport         `json:"ablation,omitempty"`
	Sweep    []bench.SweepRow        `json:"sweep,omitempty"`
	Metrics  []telemetry.MetricValue `json:"metrics,omitempty"`
}

type ablationReport struct {
	Variants int                 `json:"variants"`
	RawMuls  int                 `json:"rawMuls,omitempty"`
	RawAdds  int                 `json:"rawAdds,omitempty"`
	Rows     []bench.AblationRow `json:"rows"`
}

func main() {
	var cfg benchConfig
	var trace, pprof, cpuProf, listen, logLvl string
	var metrics, logJSON bool
	flag.IntVar(&cfg.table, "table", 0, "which table to regenerate (1 or 2)")
	flag.BoolVar(&cfg.full, "full", false, "table 1: paper-scale sizes (static counts only)")
	flag.BoolVar(&cfg.ablate, "ablate", false, "run the optimizer ablation study")
	flag.BoolVar(&cfg.sweep, "sweep", false, "run the workload-redundancy sensitivity sweep")
	flag.BoolVar(&cfg.sparse, "sparse", false, "compare dense vs sparse Jacobian build + factorization")
	flag.BoolVar(&cfg.faults, "faults", false, "measure fault-tolerance recovery overhead under injected failures")
	flag.Float64Var(&cfg.rate, "rate", 0, "-faults: transient per-file-solve failure rate (0 = default 0.05)")
	flag.BoolVar(&cfg.skew, "skew", false, "measure load-balancer scaling on skewed workloads (static vs lpt)")
	flag.IntVar(&cfg.ranks, "ranks", 8, "-skew: simulated rank count")
	flag.IntVar(&cfg.variants, "variants", 0, "-sparse/-faults/-skew: system size (0 = defaults)")
	flag.IntVar(&cfg.evalMs, "evalms", 300, "milliseconds of timing per configuration")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit machine-readable JSON results on stdout")
	flag.StringVar(&trace, "trace", "", "write a Chrome trace-event file of the estimator-driven benches")
	flag.BoolVar(&metrics, "metrics", false, "print the telemetry metrics registry after the run")
	flag.StringVar(&pprof, "pprof", "", "serve net/http/pprof on this address")
	flag.StringVar(&cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&listen, "listen", "", "serve the live introspection endpoints on this address")
	flag.StringVar(&logLvl, "log", "", "mirror flight-recorder events at this level (debug|info|warn|error) to stderr")
	flag.BoolVar(&logJSON, "logjson", false, "sink mirrored events as JSON lines")
	flag.Parse()
	cfg.obs = telemetry.CLI{TracePath: trace, Metrics: metrics, PprofAddr: pprof,
		CPUProfile: cpuProf, Listen: listen, LogLevel: logLvl, LogJSON: logJSON}
	if cfg.jsonOut {
		cfg.obs.Out = os.Stderr // keep stdout clean JSON
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "rmsbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg benchConfig) error {
	ins, finish, err := cfg.obs.Setup()
	if err != nil {
		return err
	}
	reg := ins.Registry
	if cfg.jsonOut && reg == nil {
		// -json always carries a telemetry snapshot of the
		// estimator-driven benches, even without -metrics.
		reg = telemetry.NewRegistry()
	}
	if cfg.obs.Listen != "" {
		srv := &introspect.Server{Program: "rmsbench", Registry: reg,
			Tracer: ins.Tracer, Recorder: ins.Recorder}
		addr, err := srv.Start(cfg.obs.Listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rmsbench: introspection on http://%s\n", addr)
	}
	// Human-readable tables go to stdout normally, stderr under -json.
	text := w
	if cfg.jsonOut {
		text = os.Stderr
	}

	var rep report
	did := false
	if cfg.table == 1 {
		did = true
		rows, err := bench.Table1(bench.Table1Config{
			Paper:       cfg.full,
			MinEvalTime: time.Duration(cfg.evalMs) * time.Millisecond,
		})
		if err != nil {
			return err
		}
		rep.Table1 = rows
		fmt.Fprintln(text, "Table 1 — optimization combinations across the five vulcanization test cases")
		if cfg.full {
			fmt.Fprintln(text, "(paper-scale sizes; static op counts, no timing)")
		} else {
			fmt.Fprintln(text, "(scaled sizes; xlc columns model the 4.5 GB thin node at paper scale)")
		}
		fmt.Fprint(text, bench.FormatTable1(rows))
	}
	if cfg.table == 2 {
		did = true
		rows, err := bench.Table2(bench.Table2Config{Metrics: reg})
		if err != nil {
			return err
		}
		rep.Table2 = rows
		fmt.Fprintln(text, "Table 2 — parallel objective over 16 data files (modeled parallel seconds)")
		fmt.Fprint(text, bench.FormatTable2(rows))
	}
	if cfg.sparse {
		did = true
		sc := bench.SparseConfig{}
		if cfg.variants > 0 {
			sc.Variants = []int{cfg.variants}
		}
		rows, err := bench.SparseCompare(sc)
		if err != nil {
			return err
		}
		rep.Sparse = rows
		fmt.Fprintln(text, "Dense vs sparse analytical Jacobian: build + factorization of the Newton iteration matrix")
		fmt.Fprint(text, bench.FormatSparse(rows))
	}
	if cfg.faults {
		did = true
		fc := bench.FaultsConfig{Rate: cfg.rate, Metrics: reg}
		if cfg.variants > 0 {
			fc.Variants = cfg.variants
		}
		rows, err := bench.FaultTolerance(fc)
		if err != nil {
			return err
		}
		rep.Faults = rows
		fmt.Fprintln(text, "Fault-tolerance recovery overhead (parallel objective, injected failures)")
		fmt.Fprint(text, bench.FormatFaults(rows))
	}
	if cfg.skew {
		did = true
		sk := bench.SkewConfig{Ranks: cfg.ranks, Metrics: reg}
		if cfg.variants > 0 {
			sk.Variants = cfg.variants
		}
		rows, err := bench.Skew(sk)
		if err != nil {
			return err
		}
		rep.Skew = rows
		fmt.Fprintln(text, "Load-balancer scaling on skewed workloads (per-call LPT on measured cost vs static plan)")
		fmt.Fprint(text, bench.FormatSkew(rows))
	}
	if cfg.ablate {
		did = true
		ab, err := runAblation(text)
		if err != nil {
			return err
		}
		rep.Ablation = ab
	}
	if cfg.sweep {
		did = true
		rows, err := bench.RedundancySweep(128, nil)
		if err != nil {
			return err
		}
		rep.Sweep = rows
		fmt.Fprintln(text, "Workload-redundancy sweep (128-variant case, equivalent-site multiplicity scaled)")
		fmt.Fprint(text, bench.FormatSweep(rows))
	}
	if !did {
		flag.Usage()
		return nil
	}
	if cfg.jsonOut {
		rep.Metrics = reg.Snapshot()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			return err
		}
	}
	return finish()
}

// runAblation reports the op counts of every optimizer level on one
// mid-size test case, quantifying each pass's contribution.
func runAblation(text io.Writer) (*ablationReport, error) {
	const variants = 256
	rows, rawM, rawA, err := bench.Ablation(variants)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(text, "Ablation on the %d-variant vulcanization case\n", variants)
	fmt.Fprint(text, bench.FormatAblation(rows, rawM, rawA))
	return &ablationReport{Variants: variants, RawMuls: rawM, RawAdds: rawA, Rows: rows}, nil
}
