package estimator

import (
	"fmt"
	"math"
	"testing"

	"rms/internal/faults"
	"rms/internal/sched"
)

// TestConfigCrossProduct walks the configuration space: Ranks {1, 3} ×
// Policy {block, static, lpt}, plus one row per policy with a fault plan
// attached whose only injection is scheduled past the run. New accepts
// every cell, and every cell runs three objective calls that match
// Config{Ranks: 1} bit for bit.
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
		name string
		cfg  Config
	}
	var cells []cell
	policies := []sched.Policy{sched.PolicyBlock, sched.PolicyStatic, sched.PolicyLPT}
	for _, ranks := range []int{1, 3} {
		for _, pol := range policies {
			cells = append(cells, cell{
				fmt.Sprintf("ranks=%d/policy=%s", ranks, pol),
				Config{Ranks: ranks, Policy: pol},
			})
		}
	}
	for _, pol := range policies {
		cells = append(cells, cell{
			fmt.Sprintf("ranks=3/policy=%s/faults", pol),
			Config{Ranks: 3, Policy: pol, Faults: faults.NewPlan(1).FailFile(0, len(ks))},
		})
	}

	for _, c := range cells {
		got, err := run(c.cfg)
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
