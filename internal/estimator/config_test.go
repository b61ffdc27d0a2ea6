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
// Sched {nil, static, lpt, ewma} × FaultTolerant, and for a non-nil
// Sched also × SplitShare {0, 0.25} × {one lane, two stealing lanes}.
// Every cell either fails at New, naming the field it cannot combine, or
// runs three objective calls that match Config{Ranks: 1} bit for bit.
// New rejects exactly SplitShare with FaultTolerant, Faults or a
// file-granularity policy (static, lpt); an extra row pins the Faults
// rule the axes do not reach.
func TestConfigCrossProduct(t *testing.T) {
	m := decayModel(t)
	files := makeFiles(1.2, []int{30, 6, 9, 5, 7})
	ks := []float64{1.2, 1.5, 0.9}
	run := func(cfg Config) ([][]float64, error) {
		e, err := New(m, files, cfg)
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
	want, err := run(Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}

	type cell struct {
		name   string
		cfg    Config
		reject bool
	}
	cells := []cell{
		{"split with faults", Config{Ranks: 1, Faults: faults.NewPlan(1),
			Sched: &sched.Config{SplitShare: 0.25}}, true},
	}
	policies := []*sched.Policy{nil, ptr(sched.PolicyStatic), ptr(sched.PolicyLPT), ptr(sched.PolicyEWMA)}
	for _, ranks := range []int{1, 3} {
		for _, pol := range policies {
			for _, ft := range []bool{false, true} {
				cfg := Config{Ranks: ranks, FaultTolerant: ft}
				name := fmt.Sprintf("ranks=%d/ft=%v", ranks, ft)
				if pol == nil {
					cells = append(cells, cell{name + "/sched=nil", cfg, false})
					continue
				}
				for _, split := range []float64{0, 0.25} {
					for _, lanes := range []int{1, 2} {
						c := cfg
						c.Sched = &sched.Config{Policy: *pol, SplitShare: split, Lanes: lanes, Steal: lanes == 2}
						cells = append(cells, cell{
							fmt.Sprintf("%s/sched=%s/split=%g/lanes=%d", name, *pol, split, lanes),
							c, split > 0 && (ft || *pol != sched.PolicyEWMA),
						})
					}
				}
			}
		}
	}

	for _, c := range cells {
		got, err := run(c.cfg)
		if c.reject {
			if err == nil {
				t.Errorf("%s: New accepted a combination it cannot honour", c.name)
			} else if !strings.Contains(err.Error(), "SplitShare") {
				t.Errorf("%s: error %q does not name SplitShare", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: New rejected a supported combination: %v", c.name, err)
			continue
		}
		for call := range want {
			for j := range want[call] {
				if g, w := got[call][j], want[call][j]; math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("%s: call %d residual[%d] = %v, serial %v", c.name, call, j, g, w)
					break
				}
			}
		}
	}
}

func ptr[T any](v T) *T { return &v }
