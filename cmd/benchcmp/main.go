// Command benchcmp compares two rmsbench -json documents within a
// relative tolerance band — the regression gate behind `make
// bench-compare`.
//
// Usage:
//
//	benchcmp [-tol 0.10] [-skip regexp] baseline.json current.json
//
// The two documents are walked structurally. Numeric leaves must agree
// within -tol relative tolerance; booleans and strings must match
// exactly. Wall-clock-derived fields are excluded by the -skip pattern
// (default: ModeledSec and the *_ns / *_seconds timing metrics), since
// only the virtual-clock modeled quantities are deterministic across
// hosts — see docs/observability.md.
//
// Arrays whose elements are objects carrying a "name" key (the metrics
// section) are aligned by name, so a PR that *adds* a metric family does
// not shift every later comparison; a family present in the baseline but
// missing from the current run is still a failure. Other arrays align by
// index.
//
// Exit status: 0 when everything is within tolerance, 1 on any
// regression, 2 on usage or I/O errors. With -report the exit status is
// always 0 (CI report-only mode) but the findings still print.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
)

// defaultSkip excludes wall-clock-derived values: per-row ModeledSec
// (host-scaled seconds, which rmsbench no longer writes but older
// documents, BENCH_baseline.json among them, still carry) and the timing
// metric families. Everything else in the rmsbench document replays a virtual
// clock and is deterministic up to scheduler jitter, which the tolerance
// band absorbs.
const defaultSkip = `(?i)(modeledsec|wall|_ns$|_seconds$|seconds$)`

type cmpConfig struct {
	tol    float64
	skip   *regexp.Regexp
	report bool
}

// finding is one divergence between the documents.
type finding struct {
	path     string
	kind     string // "value", "missing", "extra", "shape"
	base     string
	cur      string
	relDelta float64 // for kind "value" on numbers
}

func (f finding) String() string {
	switch f.kind {
	case "missing":
		return fmt.Sprintf("MISSING %-40s baseline has %s, current does not", f.path, f.base)
	case "extra":
		return fmt.Sprintf("new     %-40s %s (not in baseline; informational)", f.path, f.cur)
	case "shape":
		return fmt.Sprintf("SHAPE   %-40s baseline %s vs current %s", f.path, f.base, f.cur)
	}
	return fmt.Sprintf("DELTA   %-40s %s -> %s (%+.1f%%)", f.path, f.base, f.cur, 100*f.relDelta)
}

// fails reports whether the finding counts against the tolerance gate.
// "extra" entries (new fields or metric families) are informational: a
// growing benchmark surface is not a regression.
func (f finding) fails() bool { return f.kind != "extra" }

func main() {
	var cfg cmpConfig
	var skipPat string
	flag.Float64Var(&cfg.tol, "tol", 0.10, "relative tolerance for numeric fields")
	flag.StringVar(&skipPat, "skip", defaultSkip, "regexp of field/metric names to exclude (wall-clock fields)")
	flag.BoolVar(&cfg.report, "report", false, "report-only: print findings but always exit 0")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-tol f] [-skip regexp] [-report] baseline.json current.json")
		os.Exit(2)
	}
	var err error
	if cfg.skip, err = regexp.Compile(skipPat); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp: bad -skip pattern:", err)
		os.Exit(2)
	}
	base, err := loadJSON(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	cur, err := loadJSON(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}

	findings := compare(cfg, base, cur, "$")
	failed := 0
	for _, f := range findings {
		fmt.Println(f)
		if f.fails() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Printf("benchcmp: %d field(s) outside the ±%.0f%% band vs %s\n",
			failed, 100*cfg.tol, flag.Arg(0))
		if !cfg.report {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("benchcmp: OK — %s within ±%.0f%% of %s\n", flag.Arg(1), 100*cfg.tol, flag.Arg(0))
}

func loadJSON(path string) (any, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// compare walks the two documents and accumulates findings.
func compare(cfg cmpConfig, base, cur any, path string) []finding {
	switch b := base.(type) {
	case map[string]any:
		c, ok := cur.(map[string]any)
		if !ok {
			return []finding{{path: path, kind: "shape", base: typeName(base), cur: typeName(cur)}}
		}
		return compareObjects(cfg, b, c, path)
	case []any:
		c, ok := cur.([]any)
		if !ok {
			return []finding{{path: path, kind: "shape", base: typeName(base), cur: typeName(cur)}}
		}
		return compareArrays(cfg, b, c, path)
	case float64:
		c, ok := cur.(float64)
		if !ok {
			return []finding{{path: path, kind: "shape", base: typeName(base), cur: typeName(cur)}}
		}
		if rel := relDelta(b, c); rel > cfg.tol {
			return []finding{{path: path, kind: "value",
				base: formatNum(b), cur: formatNum(c), relDelta: signedDelta(b, c)}}
		}
		return nil
	default:
		// bool, string, nil: exact.
		if fmt.Sprint(base) != fmt.Sprint(cur) {
			return []finding{{path: path, kind: "value",
				base: fmt.Sprint(base), cur: fmt.Sprint(cur)}}
		}
		return nil
	}
}

func compareObjects(cfg cmpConfig, base, cur map[string]any, path string) []finding {
	var out []finding
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p := path + "." + k
		if cfg.skip.MatchString(k) {
			continue
		}
		cv, ok := cur[k]
		if !ok {
			out = append(out, finding{path: p, kind: "missing", base: summarize(base[k])})
			continue
		}
		out = append(out, compare(cfg, base[k], cv, p)...)
	}
	for k := range cur {
		if _, ok := base[k]; !ok && !cfg.skip.MatchString(k) {
			out = append(out, finding{path: path + "." + k, kind: "extra", cur: summarize(cur[k])})
		}
	}
	return out
}

func compareArrays(cfg cmpConfig, base, cur []any, path string) []finding {
	// The metrics section: objects keyed by "name". Align by name so a
	// new family in the current run doesn't shift every later index.
	if bn, ok := namedMap(base); ok {
		if cn, ok := namedMap(cur); ok {
			var out []finding
			names := make([]string, 0, len(bn))
			for n := range bn {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				p := fmt.Sprintf("%s[%q]", path, n)
				if cfg.skip.MatchString(n) {
					continue
				}
				cv, ok := cn[n]
				if !ok {
					out = append(out, finding{path: p, kind: "missing", base: summarize(bn[n])})
					continue
				}
				out = append(out, compare(cfg, bn[n], cv, p)...)
			}
			for n := range cn {
				if _, ok := bn[n]; !ok && !cfg.skip.MatchString(n) {
					out = append(out, finding{path: fmt.Sprintf("%s[%q]", path, n),
						kind: "extra", cur: summarize(cn[n])})
				}
			}
			return out
		}
	}
	if len(base) != len(cur) {
		return []finding{{path: path, kind: "shape",
			base: fmt.Sprintf("len %d", len(base)), cur: fmt.Sprintf("len %d", len(cur))}}
	}
	var out []finding
	for i := range base {
		out = append(out, compare(cfg, base[i], cur[i], fmt.Sprintf("%s[%d]", path, i))...)
	}
	return out
}

// namedMap converts an array of objects that all carry a unique string
// "name" key into a name-indexed map; ok is false otherwise.
func namedMap(arr []any) (map[string]any, bool) {
	if len(arr) == 0 {
		return nil, false
	}
	m := make(map[string]any, len(arr))
	for _, el := range arr {
		obj, ok := el.(map[string]any)
		if !ok {
			return nil, false
		}
		name, ok := obj["name"].(string)
		if !ok {
			return nil, false
		}
		if _, dup := m[name]; dup {
			return nil, false
		}
		m[name] = obj
	}
	return m, true
}

// relDelta is the symmetric relative difference, with an absolute floor
// so near-zero values don't amplify noise into failures.
func relDelta(a, b float64) float64 {
	if a == b {
		return 0
	}
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) / scale
}

// signedDelta is the (current-baseline)/baseline change for reporting.
func signedDelta(a, b float64) float64 {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return (b - a) / scale
}

func formatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%g", v)
}

func typeName(v any) string {
	switch v.(type) {
	case map[string]any:
		return "object"
	case []any:
		return "array"
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case nil:
		return "null"
	}
	return fmt.Sprintf("%T", v)
}

func summarize(v any) string {
	switch t := v.(type) {
	case map[string]any:
		return fmt.Sprintf("object(%d keys)", len(t))
	case []any:
		return fmt.Sprintf("array(%d)", len(t))
	case float64:
		return formatNum(t)
	}
	return fmt.Sprint(v)
}
