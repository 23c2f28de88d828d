package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// checkRepeat holds a run's deterministic quantities to the ones an earlier
// run of the same binary, workload, seed and mode recorded in the scratch
// directory, and records them when no earlier run did. The binary's hash
// stands for "the same code": a rebuilt program starts a fresh record.
func checkRepeat(rep *report, e env, traced bool, got map[string]float64) {
	exe, err := binaryHash()
	if err != nil {
		rep.problem("determinism record: %v", err)
		return
	}
	path := filepath.Join(e.scratch, fmt.Sprintf("determinism-%s-%s-seed%d-trace%t.json", exe, e.workload, e.seed, traced))
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		data, err = json.Marshal(got)
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil {
			rep.problem("determinism record: %v", err)
			return
		}
		rep.note("determinism: recorded %d quantities for later runs of this binary and seed", len(got))
		return
	}
	var want map[string]float64
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil {
		rep.problem("determinism record %s: %v", path, err)
		return
	}
	for k, v := range got {
		if w, ok := want[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
			rep.problem("determinism: %s is %.17g, an earlier run of this binary and seed had %.17g", k, v, w)
		}
	}
	rep.note("determinism: %d quantities repeat an earlier run of this binary and seed exactly", len(got))
}

// binaryHash is a short SHA-256 of the running executable.
func binaryHash() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
