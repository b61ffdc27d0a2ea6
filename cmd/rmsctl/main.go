// Command rmsctl is the HTTP client for the rmsd daemon. Its output
// formats deliberately match the standalone CLIs so served and local
// results diff cleanly: `rmsctl simulate` emits the same CSV as
// rmssim, and `rmsctl fit` emits the same fitted-value table rows as
// rmsrun.
//
// Usage:
//
//	rmsctl -addr HOST:PORT compile  [-rcip f] [-optimize full] model.rdl
//	rmsctl -addr HOST:PORT compile  -variants 60
//	rmsctl -addr HOST:PORT simulate [-model ID | model.rdl] [-rcip f]
//	                                [-tend 1] [-points 100] [-solver s]
//	                                [-rtol 1e-8] [-atol 1e-11]
//	rmsctl -addr HOST:PORT fit      -variants 60 -data dir [-ranks 4]
//	                                [-lb] [-maxiter 30] [-free 3]
//	rmsctl -addr HOST:PORT verify   [-variants N | model.rdl] [-rcip f]
//
// compile prints "model ID (cached|compiled)"; a second identical
// compile returns the same content-addressed ID from the daemon's
// cache without recompiling.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rms/internal/dataset"
	"rms/internal/opt"
	"rms/internal/service"
	"rms/internal/vulcan"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rmsctl:", err)
		os.Exit(1)
	}
}

// client posts JSON jobs to one rmsd instance.
type client struct {
	base string
}

// jobView mirrors service.JobView with a raw result for re-decoding.
type jobView struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	Status string          `json:"status"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// post submits a job with ?wait=1 and decodes its result into out.
func (c *client) post(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(c.base+path+"?wait=1", "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var ae struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, ae.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var jv jobView
	if err := json.Unmarshal(data, &jv); err != nil {
		return err
	}
	if jv.Status != "done" {
		return fmt.Errorf("job %s %s: %s", jv.ID, jv.Status, jv.Error)
	}
	return json.Unmarshal(jv.Result, out)
}

// spec assembles a ModelSpec from the shared flag triple.
func spec(kindHint string, variants int, rcipPath string, optimize string, args []string) (service.ModelSpec, error) {
	s := service.ModelSpec{Optimize: optimize}
	if variants > 0 {
		s.Kind = service.KindVulcan
		s.Variants = variants
		if len(args) != 0 {
			return s, fmt.Errorf("-variants and a model file are mutually exclusive")
		}
		return s, nil
	}
	if len(args) != 1 {
		return s, fmt.Errorf("expected one model file (or -variants N), got %d args", len(args))
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return s, err
	}
	s.Kind = kindHint
	if s.Kind == "" {
		s.Kind = service.KindRDL
		if strings.HasSuffix(args[0], ".net") {
			s.Kind = service.KindNet
		}
	}
	s.Source = string(src)
	if rcipPath != "" {
		b, err := os.ReadFile(rcipPath)
		if err != nil {
			return s, err
		}
		s.RCIP = string(b)
	}
	return s, nil
}

func run(w io.Writer, args []string) error {
	global := flag.NewFlagSet("rmsctl", flag.ContinueOnError)
	addr := global.String("addr", "", "rmsd address (HOST:PORT)")
	if err := global.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("expected a subcommand: compile | simulate | fit | verify")
	}
	c := &client{base: "http://" + *addr}
	switch rest[0] {
	case "compile":
		return cmdCompile(w, c, rest[1:])
	case "simulate":
		return cmdSimulate(w, c, rest[1:])
	case "fit":
		return cmdFit(w, c, rest[1:])
	case "verify":
		return cmdVerify(w, c, rest[1:])
	}
	return fmt.Errorf("unknown subcommand %q", rest[0])
}

func cmdCompile(w io.Writer, c *client, args []string) error {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	rcip := fs.String("rcip", "", "rate-constant information file")
	variants := fs.Int("variants", 0, "compile the built-in vulcanization model at this size")
	optimize := fs.String("optimize", "full", "optimizer level ("+opt.LevelNames()+")")
	kind := fs.String("kind", "", "source kind (rdl|net); inferred from the extension by default")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := spec(*kind, *variants, *rcip, *optimize, fs.Args())
	if err != nil {
		return err
	}
	var info service.ModelInfo
	if err := c.post("/v1/models", sp, &info); err != nil {
		return err
	}
	state := "compiled"
	if info.Cached {
		state = "cached"
	}
	fmt.Fprintf(w, "model %s (%s)\n", info.ID, state)
	return nil
}

func cmdSimulate(w io.Writer, c *client, args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	model := fs.String("model", "", "cached model ID (instead of a model file)")
	rcip := fs.String("rcip", "", "rate-constant information file")
	tEnd := fs.Float64("tend", 1, "integration horizon")
	points := fs.Int("points", 100, "number of output rows")
	solver := fs.String("solver", "adams-gear", "adams-gear | runge-kutta")
	rtol := fs.Float64("rtol", 1e-8, "relative tolerance")
	atol := fs.Float64("atol", 1e-11, "absolute tolerance")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := service.SimulateRequest{
		TEnd: *tEnd, Points: *points, Solver: *solver, RTol: *rtol, ATol: *atol,
	}
	if *model != "" {
		req.Model = *model
	} else {
		sp, err := spec("", 0, *rcip, "full", fs.Args())
		if err != nil {
			return err
		}
		req.Spec = &sp
	}
	var res service.SimulateResult
	if err := c.post("/v1/simulate", req, &res); err != nil {
		return err
	}
	// Identical CSV to rmssim: header then %.8g rows.
	fmt.Fprintf(w, "t,%s\n", strings.Join(res.Species, ","))
	for _, row := range res.Rows {
		fmt.Fprintf(w, "%.8g", row[0])
		for _, v := range row[1:] {
			fmt.Fprintf(w, ",%.8g", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func cmdFit(w io.Writer, c *client, args []string) error {
	fs := flag.NewFlagSet("fit", flag.ContinueOnError)
	variants := fs.Int("variants", 60, "chain-length variants per family")
	dataDir := fs.String("data", "rms-assets", "directory of experimental data files")
	ranks := fs.Int("ranks", 4, "number of simulated MPI ranks")
	lb := fs.Bool("lb", true, "enable dynamic load balancing (sched policy lpt)")
	maxIter := fs.Int("maxiter", 30, "Levenberg-Marquardt iteration cap")
	free := fs.Int("free", 3, "number of rate constants left free to fit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths, err := filepath.Glob(filepath.Join(*dataDir, "exp*.dat"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no exp*.dat files in %s (run rmsgen first)", *dataDir)
	}
	sort.Strings(paths)
	var files []*dataset.File
	for _, p := range paths {
		f, err := dataset.ReadFile(p)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	sp := service.ModelSpec{Kind: service.KindVulcan, Variants: *variants}
	var info service.ModelInfo
	if err := c.post("/v1/models", sp, &info); err != nil {
		return err
	}
	// The same bound scheme as rmsrun: the first `free` constants float
	// within a decade of truth, the rest pin to it.
	n := len(info.Rates)
	lower := make([]float64, n)
	upper := make([]float64, n)
	start := make([]float64, n)
	for i, name := range info.Rates {
		truth := vulcan.TrueRates[name]
		if i < *free {
			lower[i], upper[i] = truth/10, truth*10
			start[i] = truth / 3
		} else {
			lower[i], upper[i], start[i] = truth, truth, truth
		}
	}
	req := service.FitRequest{
		Model: info.ID, Data: service.FromDataset(files),
		Property: "crosslink", RTol: 1e-9, ATol: 1e-12,
		Ranks: *ranks, LoadBalance: *lb,
		MaxIter: *maxIter, RelStep: 1e-4,
		Start: start, Lower: lower, Upper: upper,
	}
	var res service.FitResult
	if err := c.post("/v1/fit", req, &res); err != nil {
		return err
	}
	fmt.Fprintf(w, "converged=%v iterations=%d rnorm=%.3g objective calls=%d\n",
		res.Converged, res.Iterations, res.RNorm, res.Calls)
	// The same table rows as rmsrun (name + fitted value columns).
	fmt.Fprintln(w, "rate constant   fitted")
	for i, name := range res.Rates {
		fmt.Fprintf(w, "%-14s %8.4f\n", name, res.X[i])
	}
	return nil
}

func cmdVerify(w io.Writer, c *client, args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	variants := fs.Int("variants", 0, "verify the built-in vulcanization model at this size")
	rcip := fs.String("rcip", "", "rate-constant information file")
	tEnd := fs.Float64("tend", 0.1, "verification horizon")
	points := fs.Int("points", 5, "verification rows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := spec("", *variants, *rcip, "full", fs.Args())
	if err != nil {
		return err
	}
	req := service.VerifyRequest{Spec: sp, TEnd: *tEnd, Points: *points}
	if sp.Kind == service.KindVulcan {
		req.Rates = vulcan.TrueRates
	}
	var res service.VerifyResult
	if err := c.post("/v1/verify", req, &res); err != nil {
		return err
	}
	fmt.Fprintf(w, "model %s: ok=%v rows=%d checks=%d mismatches=%d\n",
		res.Model, res.OK, res.Rows, res.Checks, res.Mismatches)
	if !res.OK {
		return fmt.Errorf("cached and fresh compilations diverge")
	}
	return nil
}
