package bench

import (
	"strings"
	"testing"
	"time"

	"rms/internal/core"
	"rms/internal/opt"
	"rms/internal/vulcan"
)

func TestTable1SmallRun(t *testing.T) {
	rows, err := Table1(Table1Config{
		MinEvalTime: 10 * time.Millisecond,
		Cases:       vulcan.Cases[:2],
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Equations == 0 || r.RawMuls == 0 || r.OptMuls == 0 {
			t.Errorf("%s: empty row %+v", r.Case.Name, r)
		}
		if r.OptMuls+r.OptAdds >= r.RawMuls+r.RawAdds {
			t.Errorf("%s: no op reduction", r.Case.Name)
		}
		if r.Speedup <= 1 {
			t.Errorf("%s: speedup %v", r.Case.Name, r.Speedup)
		}
		if r.PaperRawLevel < 0 || r.PaperOptLevel < 0 {
			t.Errorf("%s: cases 1-2 compile at paper scale in Table 1", r.Case.Name)
		}
	}
	out := FormatTable1(rows)
	for _, want := range []string{"case1", "case2", "capacity at -O0", "(paper, full scale)"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2SmallRun(t *testing.T) {
	rows, err := Table2(Table2Config{
		Variants:   9,
		Files:      8,
		Records:    60,
		Calls:      2,
		RankCounts: []int{1, 2, 4, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].SpeedupLB != 1 || rows[0].SpeedupStatic != 1 {
		t.Errorf("1-rank speedups = %+v", rows[0])
	}
	// Modeled time decreases with ranks (work accounting is
	// deterministic).
	for i := 1; i < len(rows); i++ {
		if rows[i].TimeLB >= rows[i-1].TimeLB {
			t.Errorf("LB time not decreasing: %v then %v", rows[i-1].TimeLB, rows[i].TimeLB)
		}
	}
	// At 8 ranks with 8 files, static and LB coincide (one file per rank).
	last := rows[len(rows)-1]
	if last.TimeLB != last.TimeStatic {
		t.Errorf("8 ranks / 8 files: LB %v vs static %v, want identical",
			last.TimeLB, last.TimeStatic)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "paper (IBM SP, 16 files)") {
		t.Errorf("FormatTable2 missing paper block:\n%s", out)
	}
}

// BenchmarkRHSEval times the tape interpreter on the raw 200-variant
// tape:
//
//	go test -bench RHSEval -benchtime 2s ./internal/bench/
func BenchmarkRHSEval(b *testing.B) {
	net, err := vulcan.Network(200)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.CompileNetwork(net, core.Config{Optimize: opt.LevelNone})
	if err != nil {
		b.Fatal(err)
	}
	prog := res.Tape
	y, k := benchInputs(prog)
	dy := make([]float64, prog.NumY)
	ev := prog.NewEvaluator()
	ev.Eval(y, k, dy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Eval(y, k, dy)
	}
}

func TestBestLevel(t *testing.T) {
	if got := bestLevel(100); got != 4 {
		t.Errorf("tiny program level = %d, want 4", got)
	}
	if got := bestLevel(1 << 40); got != -1 {
		t.Errorf("huge program level = %d, want -1", got)
	}
	// The paper's case 5 raw count fails everywhere; its optimized count
	// compiles at -O0.
	if got := bestLevel(2400000 + 974000); got != -1 {
		t.Errorf("case5 raw level = %d, want -1", got)
	}
	if got := bestLevel(32400 + 201000); got < 0 {
		t.Errorf("case5 optimized level = %d, want >= 0", got)
	}
}

func TestRedundancySweep(t *testing.T) {
	rows, err := RedundancySweep(16, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Raw ops scale with redundancy; optimized ops stay (nearly) flat; the
	// kept fraction falls monotonically.
	for i := 1; i < len(rows); i++ {
		if rows[i].RawMuls <= rows[i-1].RawMuls {
			t.Errorf("raw muls not increasing: %v then %v", rows[i-1].RawMuls, rows[i].RawMuls)
		}
		if rows[i].Kept >= rows[i-1].Kept {
			t.Errorf("kept fraction not falling: %v then %v", rows[i-1].Kept, rows[i].Kept)
		}
		drift := float64(rows[i].OptMuls+rows[i].OptAdds) / float64(rows[0].OptMuls+rows[0].OptAdds)
		if drift > 1.1 || drift < 0.9 {
			t.Errorf("optimized ops drifted %vx under pure redundancy", drift)
		}
	}
	out := FormatSweep(rows)
	if !strings.Contains(out, "kept") || !strings.Contains(out, "0.069") {
		t.Errorf("FormatSweep output:\n%s", out)
	}
}
