package bench

import (
	"strings"
	"testing"
)

func TestSkewSmallRun(t *testing.T) {
	// Full-width corpus (20 files) on the small model: fewer files would
	// leave the zipf head saturation-bound and the speedup unmeasurable.
	rows, err := Skew(SkewConfig{Variants: 8, MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 2 scenarios × (serial + static + lpt).
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.ModeledOps <= 0 {
			t.Errorf("%s/%s: no modeled work", r.Scenario, r.Policy)
		}
		// The load balancer must never buy throughput with numerics.
		if !r.BitIdentical {
			t.Errorf("%s/%s: fitted parameters diverged from serial", r.Scenario, r.Policy)
		}
		if r.Policy != "serial" && r.Speedup <= 1 {
			t.Errorf("%s/%s: parallel slower than serial (%.2fx)", r.Scenario, r.Policy, r.Speedup)
		}
	}
	// The dynamic load balancer must beat the record-count static plan on the
	// anti-correlated workloads (the full-size zipf target of >=1.5x is
	// checked by the rmsbench run; this guards the direction at toy size).
	if gain := SkewSpeedupOverStatic(rows, "zipf"); gain <= 1 {
		t.Errorf("zipf: lpt vs static %.2fx, want > 1x", gain)
	}
	out := FormatSkew(rows)
	for _, want := range []string{"scenario", "zipf", "oneheavy", "lpt vs static"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatSkew missing %q:\n%s", want, out)
		}
	}
}
