// Package checkpoint provides versioned, content-hashed snapshot files
// for long-running fits. A checkpoint is a JSON envelope around an
// arbitrary JSON payload: the envelope records a format version, a kind
// tag (so a fit checkpoint cannot be resumed as a trajectory), and
// the SHA-256 of the payload bytes, which Load verifies before
// unmarshalling — a truncated or bit-rotted file is rejected instead of
// silently resuming from garbage.
//
// Save writes atomically (temp file in the target directory, then
// rename), so a crash mid-write leaves either the previous checkpoint or
// none — never a torn file. Callers snapshot only at iteration
// boundaries; the file on disk is therefore always a resumable state.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"rms/internal/telemetry"
)

// logger is the package's structured logger (checkpoint writes are part
// of the flight-recorder timeline). Swappable at runtime because the
// cmds wire their instruments after flag parsing; a nil logger is free.
var logger atomic.Pointer[telemetry.Logger]

// SetLogger routes checkpoint-write events to l (nil disables).
func SetLogger(l *telemetry.Logger) { logger.Store(l) }

// Version is the envelope format version. Load rejects files written by
// a different version rather than guessing at field semantics.
const Version = 1

// ErrCorrupt marks a checkpoint whose payload bytes do not hash to the
// recorded digest. Errors from Load wrap it; callers distinguishing
// "corrupt file" from "wrong kind/version" can errors.Is against it.
var ErrCorrupt = errors.New("checkpoint: payload hash mismatch")

// envelope is the on-disk frame around the payload.
type envelope struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// Marshal frames a payload value into checkpoint bytes: the payload is
// JSON-encoded, hashed, and wrapped in the versioned envelope. The
// encoding is canonical for a canonical payload (struct fields encode in
// declaration order), so identical states produce identical bytes.
func Marshal(kind string, payload any) ([]byte, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode %s payload: %w", kind, err)
	}
	sum := sha256.Sum256(body)
	env := envelope{
		Version: Version,
		Kind:    kind,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: body,
	}
	out, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode envelope: %w", err)
	}
	return append(out, '\n'), nil
}

// Unmarshal verifies checkpoint bytes (version, kind, payload hash) and
// decodes the payload into out.
func Unmarshal(data []byte, kind string, out any) error {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("checkpoint: parse envelope: %w", err)
	}
	if env.Version != Version {
		return fmt.Errorf("checkpoint: version %d, this build reads %d", env.Version, Version)
	}
	if env.Kind != kind {
		return fmt.Errorf("checkpoint: file holds a %q snapshot, want %q", env.Kind, kind)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return fmt.Errorf("%w (kind %s)", ErrCorrupt, kind)
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return fmt.Errorf("checkpoint: decode %s payload: %w", kind, err)
	}
	return nil
}

// Save atomically writes a checkpoint file: the envelope is staged in a
// temp file beside path and renamed into place, so readers (and crashes)
// see either the old complete file or the new complete file.
func Save(path, kind string, payload any) error {
	data, err := Marshal(kind, payload)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: stage %s: %w", path, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: commit %s: %w", path, err)
	}
	logger.Load().Info("write", "checkpoint written",
		"path", path, "kind", kind, "bytes", len(data))
	return nil
}

// Load reads, verifies and decodes a checkpoint file written by Save.
func Load(path, kind string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint: read: %w", err)
	}
	if err := Unmarshal(data, kind, out); err != nil {
		return fmt.Errorf("%w (file %s)", err, path)
	}
	return nil
}
