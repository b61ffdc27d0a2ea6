package estimator

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rms/internal/faults"
	"rms/internal/sched"
)

// TestConfigCrossProduct walks the configuration space: Ranks {1, 3} ×
// Sched {nil, static, lpt, ewma} × Batch × FaultTolerant, and for a
// non-nil Sched also × SplitShare {0, 0.25} × {one lane, two stealing
// lanes}. Every cell either fails at New, naming the fields it cannot
// combine, or runs three objective calls that match Config{Ranks: 1}:
// bit for bit, or within 1e-6 under Batch (the lockstep batch's shared
// step control differs from a lone file's). New rejects exactly Batch
// with FaultTolerant, Steal or SplitShare, and SplitShare with
// FaultTolerant, Faults or a file-granularity policy. Extra rows pin the
// rules the axes do not reach and a batch on each of two lanes.
func TestConfigCrossProduct(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.2, []int{30, 6, 9, 5, 7})
	ks := []float64{1.2, 1.5, 0.9}
	run := func(model *Model, cfg Config) ([][]float64, error) {
		e, err := New(model, files, cfg)
		if err != nil {
			return nil, err
		}
		var out [][]float64
		for _, k := range ks {
			r := make([]float64, e.ResidualDim())
			if err := e.Objective([]float64{k}, r); err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			out = append(out, r)
		}
		return out, nil
	}
	want, err := run(m, Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}

	type cell struct {
		name   string
		model  *Model
		cfg    Config
		reject bool
	}
	nonStiff := *m
	nonStiff.Stiff = false
	cells := []cell{
		{"non-stiff batch", &nonStiff, Config{Ranks: 1, Batch: true}, true},
		{"split with faults", m, Config{Ranks: 1, Faults: faults.NewPlan(1),
			Sched: &sched.Config{SplitShare: 0.25}}, true},
		{"batch on two lanes", m, Config{Ranks: 3, Batch: true, Sched: &sched.Config{Lanes: 2}}, false},
	}
	policies := []*sched.Policy{nil, ptr(sched.PolicyStatic), ptr(sched.PolicyLPT), ptr(sched.PolicyEWMA)}
	for _, ranks := range []int{1, 3} {
		for _, pol := range policies {
			for _, batch := range []bool{false, true} {
				for _, ft := range []bool{false, true} {
					cfg := Config{Ranks: ranks, Batch: batch, FaultTolerant: ft}
					name := fmt.Sprintf("ranks=%d/batch=%v/ft=%v", ranks, batch, ft)
					if pol == nil {
						cells = append(cells, cell{name + "/sched=nil", m, cfg, batch && ft})
						continue
					}
					for _, split := range []float64{0, 0.25} {
						for _, lanes := range []int{1, 2} {
							c := cfg
							c.Sched = &sched.Config{Policy: *pol, SplitShare: split, Lanes: lanes, Steal: lanes == 2}
							reject := batch && (ft || lanes == 2 || split > 0) ||
								split > 0 && (ft || *pol != sched.PolicyEWMA)
							cells = append(cells, cell{
								fmt.Sprintf("%s/sched=%s/split=%g/lanes=%d", name, *pol, split, lanes),
								m, c, reject,
							})
						}
					}
				}
			}
		}
	}

	for _, c := range cells {
		got, err := run(c.model, c.cfg)
		if c.reject {
			if err == nil {
				t.Errorf("%s: New accepted a combination it cannot honour", c.name)
			} else if !strings.Contains(err.Error(), "Batch") && !strings.Contains(err.Error(), "SplitShare") {
				t.Errorf("%s: error %q names neither Batch nor SplitShare", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: New rejected a supported combination: %v", c.name, err)
			continue
		}
		for call := range want {
			for j := range want[call] {
				g, w := got[call][j], want[call][j]
				if c.cfg.Batch && math.Abs(g-w) > 1e-6 || !c.cfg.Batch && math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("%s: call %d residual[%d] = %v, serial %v", c.name, call, j, g, w)
					break
				}
			}
		}
	}
}

func ptr[T any](v T) *T { return &v }
