// Package service is the shared simulation/estimation engine behind
// both the rms command-line tools and the rmsd HTTP daemon: one code
// path compiles a model once — content-addressed on its source and
// optimization flags — and serves any number of simulate and fit
// requests from the cached artifact (parsed network, optimized tape,
// Jacobian sparsity pattern and symbolic LU).
//
// The package splits in two layers:
//
//   - Engine (engine.go) owns the compiled-model cache and the
//     singleflight compilation; RunSimulate (simulate.go) and RunFit
//     (fit.go) execute one request against a cached model. The CLIs
//     call this layer directly.
//   - Server (server.go) mounts the /v1 JSON API over a bounded job
//     queue (jobs.go) with per-job budgets, ndjson progress streaming
//     and graceful drain. rmsd is a thin main around it.
package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"rms/internal/opt"
)

// Model spec kinds.
const (
	KindRDL    = "rdl"    // Source is RDL program text
	KindNet    = "net"    // Source is the network text format (internal/network.ParseText)
	KindVulcan = "vulcan" // Variants selects the built-in vulcanization model
)

// ModelSpec describes one compilation input. Two specs with equal
// normalized fields address the same cached model.
type ModelSpec struct {
	// Kind selects the front end: "rdl" (default), "net" or "vulcan".
	Kind string `json:"kind,omitempty"`
	// Source is the program text for the rdl and net kinds.
	Source string `json:"source,omitempty"`
	// RCIP is optional rate-constant information source text; it
	// participates in the cache key because it changes the compiled
	// rate table.
	RCIP string `json:"rcip,omitempty"`
	// Variants sizes the vulcan kind (chain-length variants per family).
	Variants int `json:"variants,omitempty"`
	// Optimize names the optimizer level (opt.ParseLevel): "none",
	// "simplify", "distribute", "paper", "products" or "full" (default).
	Optimize string `json:"optimize,omitempty"`
}

// normalize fills defaults and validates the spec.
func (s *ModelSpec) normalize() error {
	if s.Kind == "" {
		s.Kind = KindRDL
	}
	switch s.Kind {
	case KindRDL, KindNet:
		if s.Source == "" {
			return fmt.Errorf("service: %s spec needs source text", s.Kind)
		}
		if s.Variants != 0 {
			return fmt.Errorf("service: variants is only valid for the vulcan kind")
		}
	case KindVulcan:
		if s.Source != "" {
			return fmt.Errorf("service: vulcan spec takes no source text")
		}
		if s.Variants <= 0 {
			return fmt.Errorf("service: vulcan spec needs variants > 0")
		}
	default:
		return fmt.Errorf("service: unknown model kind %q", s.Kind)
	}
	if s.Optimize == "" {
		s.Optimize = opt.Full().String()
	}
	_, err := opt.ParseLevel(s.Optimize)
	return err
}

// hashField writes one length-prefixed field so adjacent fields cannot
// alias ("ab"+"c" vs "a"+"bc").
func hashField(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

// CacheKey is the content address of the compiled model: sha256 over
// the normalized kind, source, RCIP text, variant count and optimizer
// configuration. The spec must already be normalized (Engine.Compile
// normalizes before keying).
func (s ModelSpec) CacheKey() string {
	h := sha256.New()
	hashField(h, s.Kind)
	hashField(h, s.Source)
	hashField(h, s.RCIP)
	hashField(h, fmt.Sprintf("variants=%d", s.Variants))
	hashField(h, s.Optimize)
	return hex.EncodeToString(h.Sum(nil))
}
