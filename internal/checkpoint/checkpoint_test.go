package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type demoState struct {
	Name  string    `json:"name"`
	Iter  int       `json:"iter"`
	Theta []float64 `json:"theta"`
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	in := demoState{Name: "demo", Iter: 7, Theta: []float64{1.5, -2.25, 0.125}}
	if err := Save(path, "demo", in); err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := Load(path, "demo", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Iter != in.Iter || len(out.Theta) != 3 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	for i, v := range in.Theta {
		if out.Theta[i] != v {
			t.Fatalf("theta[%d] = %v, want %v", i, out.Theta[i], v)
		}
	}
}

func TestMarshalIsDeterministic(t *testing.T) {
	in := demoState{Name: "demo", Iter: 3, Theta: []float64{0.1, 0.2}}
	a, err := Marshal("demo", in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal("demo", in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("identical payloads produced different checkpoint bytes")
	}
}

func TestLoadRejectsCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	if err := Save(path, "demo", demoState{Name: "demo", Iter: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte without breaking the JSON frame.
	mut := strings.Replace(string(data), `"iter":1`, `"iter":2`, 1)
	if mut == string(data) {
		t.Fatal("mutation did not apply")
	}
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}
	var out demoState
	err = Load(path, "demo", &out)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted payload loaded: err = %v", err)
	}
}

func TestLoadRejectsWrongKindAndVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	if err := Save(path, "demo", demoState{}); err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := Load(path, "other", &out); err == nil {
		t.Error("wrong kind accepted")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := strings.Replace(string(data), `"version":1`, `"version":99`, 1)
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(path, "demo", &out); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestLoadRejectsTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	if err := Save(path, "demo", demoState{Name: "demo", Theta: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := Load(path, "demo", &out); err == nil {
		t.Error("truncated file accepted")
	}
}

func TestSaveLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	for i := 0; i < 3; i++ {
		if err := Save(path, "demo", demoState{Iter: i}); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "fit.ckpt" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only fit.ckpt", names)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")
	if err := Save(path, "demo", demoState{Iter: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, "demo", demoState{Iter: 2}); err != nil {
		t.Fatal(err)
	}
	var out demoState
	if err := Load(path, "demo", &out); err != nil {
		t.Fatal(err)
	}
	if out.Iter != 2 {
		t.Errorf("Iter = %d, want 2 (latest write)", out.Iter)
	}
}
