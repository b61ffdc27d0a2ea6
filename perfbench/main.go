// Command perfbench is the repository's wall-clock benchmark. It drives
// the pipeline through its public Go entry points on three seeded
// workloads and prints one JSON result line:
//
//	compile  uncached service.Engine.BuildUncached over RDL and network text
//	fit      service.RunFit, rmsrun's fit path, at ranks = 2 with load balancing
//	serve    rmsd in-process: an open loop of Poisson arrivals, then a closed loop
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload compile --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with every hook off; with --trace 1 a fixed list of operations runs
// with the program's hooks on and the result carries the per-layer
// ledger. See README.md for the workloads, metrics and checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// setupReps is how many times each workload repeats its set-up; setup_s
// reports the median.
const setupReps = 5

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics every workload reports, with
// their units. Each is defined on every workload (README.md gives the
// per-workload meaning).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"capacity_rps", "1/s"},
}

// perLayer lists the traced run's ledger, as per-operation means unless
// the name says otherwise. A layer that a workload's operations never
// enter reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"rdl.parse_ms", "ms"},
	{"network.parse_ms", "ms"},
	{"network.generate_ms", "ms"},
	{"network.reactions", "count"},
	{"eqgen.generate_ms", "ms"},
	{"opt.optimize_ms", "ms"},
	{"opt.kept_ops_ratio", "ratio"},
	{"codegen.tape_ms", "ms"},
	{"codegen.jacobian_ms", "ms"},
	{"codegen.jacobian_nnz", "count"},
	{"linalg.symbolic_lu_ms", "ms"},
	{"nlopt.iterations", "count"},
	{"nlopt.objective_calls", "count"},
	{"nlopt.useful_call_ratio", "ratio"},
	{"nlopt.self_ms", "ms"},
	{"estimator.objective_ms", "ms"},
	{"estimator.file_solve_ms", "ms"},
	{"mpi.wait_share", "ratio"},
	{"ode.steps", "count"},
	{"ode.rejected_steps", "count"},
	{"ode.newton_iters", "count"},
	{"ode.fevals", "count"},
	{"ode.jevals", "count"},
	{"ode.factorizations", "count"},
	{"linalg.factor_ops", "count"},
	{"linalg.solve_ops", "count"},
	{"codegen.rhs_us", "us"},
	{"codegen.jac_us", "us"},
	{"ode.self_share", "ratio"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms.simulate", "ms"},
	{"service.run_ms.compile_hit", "ms"},
	{"service.run_ms.compile_miss", "ms"},
	{"service.response_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"unattributed_share", "ratio"},
}

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// report accumulates one run's metrics, counts and failed checks.
type report struct {
	res    result
	checks []string
}

// metric records a metric and prints it with its sample count.
func (r *report) metric(name string, v float64, unit string, samples int) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("metric %-28s %14.6g %-5s samples=%d\n", name, v, unit, samples)
}

// info prints a figure that is not part of the result line.
func (r *report) info(name string, v float64, unit string, samples int) {
	fmt.Printf("info   %-28s %14.6g %-5s samples=%d\n", name, v, unit, samples)
}

// fail records a failed output check; any failure makes the run
// incorrect.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.checks) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	r.checks = append(r.checks, msg)
}

// op counts one attempted operation and whether it failed.
func (r *report) op(err error) {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		r.fail("operation failed: %v", err)
	}
}

// layers accumulates ledger totals for the traced run: sum[name] is the
// total over the run, divided by ops at the end.
type layers struct {
	sum map[string]float64
	ops int
}

func newLayers() *layers { return &layers{sum: make(map[string]float64)} }

func (l *layers) add(name string, v float64) { l.sum[name] += v }

// emit writes every per-layer metric as a per-operation mean; names in
// direct hold values that are already final (ratios and per-solve
// means).
func (l *layers) emit(r *report, direct map[string]float64) {
	for _, m := range perLayer {
		v, ok := direct[m.name]
		if !ok && l.ops > 0 {
			v = l.sum[m.name] / float64(l.ops)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("per-layer metric %s is %v", m.name, v)
			v = 0
		}
		r.metric(m.name, v, m.unit, l.ops)
	}
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", "compile | fit | serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: drives every generated input")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured duration of an untraced run")
	traceN := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	o.trace = *traceN == 1
	run, ok := map[string]func(opts, *report) error{
		"compile": runCompile, "fit": runFit, "serve": runServe,
	}[o.workload]
	if !ok || o.seconds <= 0 || (*traceN != 0 && *traceN != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload compile|fit|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	r := &report{res: result{Metrics: make(map[string]metric)}}
	h := startHost()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v start=%s\n",
		o.workload, o.seed, o.seconds, o.trace, time.Now().UTC().Format(time.RFC3339))
	if err := run(o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	h.report()

	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := r.res.Metrics[m.name]; !ok {
			r.fail("metric %s was not measured", m.name)
		}
	}
	if r.res.Attempted < 1 {
		r.fail("no operation was attempted")
	}
	r.res.Correct = len(r.checks) == 0
	if !r.res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d check(s) failed: %s\n", len(r.checks), strings.Join(r.checks[:min(3, len(r.checks))], "; "))
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.res.Correct {
		os.Exit(1)
	}
}
