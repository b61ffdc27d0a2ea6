package main

import (
	"strings"
	"testing"
)

func TestSmokeRunPasses(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-seed", "1", "-n", "3", "-size", "7", "-shrinkdir", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "PASS (") {
		t.Errorf("missing PASS line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "tape") {
		t.Errorf("missing stage table:\n%s", out.String())
	}
}

func TestStageSubsetAndMetrics(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-n", "2", "-size", "6", "-stages", "tape,jacobian", "-metrics",
		"-shrinkdir", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if strings.Contains(out.String(), "newton") {
		t.Error("unselected stage ran")
	}
	if !strings.Contains(out.String(), "conformance.tape.cases") {
		t.Errorf("-metrics output missing:\n%s", out.String())
	}
}

func TestUnknownStageFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-stages", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown stage") {
		t.Errorf("stderr:\n%s", errb.String())
	}
}

func TestListStages(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, name := range []string{"simplify", "ccomp", "estimator", "rdl"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list missing %s:\n%s", name, out.String())
		}
	}
}
