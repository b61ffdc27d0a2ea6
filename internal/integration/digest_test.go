package integration

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rms/internal/codegen"
	"rms/internal/conformance"
	"rms/internal/core"
	"rms/internal/network"
	"rms/internal/opt"
	"rms/internal/vulcan"
)

const digestFile = "compile_digest.txt"

// digestLevels are the optimizer rungs every digest input compiles at:
// the raw equations, the paper's configuration and production.
var digestLevels = []opt.Level{opt.LevelNone, opt.LevelPaper, opt.LevelFull}

// digestInput is one source of the compile digest: a prebuilt network or
// RDL source text.
type digestInput struct {
	name string
	net  func() (*network.Network, error)
	rdl  string
}

func digestInputs() []digestInput {
	var in []digestInput
	for _, v := range []int{10, 12, 20, 35, 250} {
		in = append(in, digestInput{
			name: fmt.Sprintf("vulcan-%d", v),
			net:  func() (*network.Network, error) { return vulcan.Network(v) },
		})
	}
	for _, c := range [][2]int{{12, 2}, {20, 3}} {
		in = append(in, digestInput{
			name: fmt.Sprintf("vulcan-redundant-%d-%d", c[0], c[1]),
			net:  func() (*network.Network, error) { return vulcan.NetworkWithRedundancy(c[0], c[1]) },
		})
	}
	for _, v := range []int{10, 12, 14} {
		in = append(in, digestInput{name: fmt.Sprintf("vulcan-rdl-%d", v), rdl: vulcan.RDLSource(v)})
	}
	for seed := int64(1); seed <= 20; seed++ {
		in = append(in, digestInput{
			name: fmt.Sprintf("random-rdl-%d", seed),
			rdl:  conformance.RandomRDL(rand.New(rand.NewSource(seed))),
		})
	}
	for seed := int64(1); seed <= 20; seed++ {
		n := 4 + int(seed)
		in = append(in, digestInput{
			name: fmt.Sprintf("random-net-%d", seed),
			net: func() (*network.Network, error) {
				return conformance.RandomNetwork(rand.New(rand.NewSource(seed)), n), nil
			},
		})
	}
	return in
}

// compileDigest hashes every artifact of one compile that a compiler
// refactor must leave byte-identical: species names (and SMILES), the
// network text, the RHS tape, the Jacobian's layout and tape, and the
// emitted C.
func compileDigest(res *core.Result) string {
	h := sha256.New()
	for _, s := range res.Network.Species {
		digestString(h, s.Name)
		digestString(h, s.SMILES)
	}
	digestString(h, network.FormatText(res.Network))
	digestProgram(h, res.Tape)
	digestInt32s(h, res.Jacobian.Rows)
	digestInt32s(h, res.Jacobian.Cols)
	digestProgram(h, res.Jacobian.Prog)
	digestString(h, codegen.EmitC(res.Optimized, "ode_fcn"))
	return hex.EncodeToString(h.Sum(nil))
}

func digestProgram(h hash.Hash, p *codegen.Program) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(p.NumSlots))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(len(p.Consts)))
	h.Write(b[:])
	for _, c := range p.Consts {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c))
		h.Write(b[:])
	}
	for _, code := range [][]codegen.Instr{p.Prelude, p.Code} {
		binary.LittleEndian.PutUint64(b[:], uint64(len(code)))
		h.Write(b[:])
		for _, in := range code {
			h.Write([]byte{byte(in.Op)})
			digestInt32s(h, []int32{in.Dst, in.A, in.B})
		}
	}
	digestInt32s(h, p.Out)
}

func digestInt32s(h hash.Hash, xs []int32) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:4], uint32(x))
		h.Write(b[:4])
	}
}

func digestString(h hash.Hash, s string) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
	h.Write(b[:])
	h.Write([]byte(s))
}

// TestCompileDigest pins, per source and optimizer level, one SHA-256
// over every compile artifact (see compileDigest). A change that only
// makes the compiler faster must leave the golden file untouched;
// regenerate it with
// `go test ./internal/integration -run CompileDigest -update-golden`
// only after an intentional change to the generated code, and justify
// the diff in the change that makes it.
func TestCompileDigest(t *testing.T) {
	var lines []string
	for _, in := range digestInputs() {
		for _, l := range digestLevels {
			cfg := core.Config{Optimize: l, AnalyticJacobian: true}
			var res *core.Result
			var err error
			if in.rdl != "" {
				res, err = core.CompileRDL(in.rdl, cfg)
			} else {
				var net *network.Network
				if net, err = in.net(); err == nil {
					res, err = core.CompileNetwork(net, cfg)
				}
			}
			if err != nil {
				t.Fatalf("%s at %s: %v", in.name, l, err)
			}
			lines = append(lines, fmt.Sprintf("%s %s %s", in.name, l, compileDigest(res)))
		}
	}

	path := filepath.Join("testdata", digestFile)
	if *updateGolden {
		body := "# SHA-256 of every compile artifact per source and optimizer level.\n" +
			"# Written by TestCompileDigest -update-golden.\n" +
			strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to generate)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("golden file has %d compiles, the test makes %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("digest differs:\n got %s\nwant %s", lines[i], want[i])
		}
	}
}
