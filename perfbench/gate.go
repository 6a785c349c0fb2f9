package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
)

// defaultSeed is the seed the committed reference digests were taken
// at. Other seeds are gated by determinism and the cross-checks only.
const defaultSeed = 1

// reference is the committed output gate: for each scale, the digest
// of each workload's canonical output at defaultSeed.
type reference struct {
	Seed    uint64                       `json:"seed"`
	Digests map[string]map[string]string `json:"digests"`
}

func loadReference(path string) (*reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	var r reference
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("reference digests %s: %w", path, err)
	}
	return &r, nil
}

// want returns the committed digest for a workload at a scale and
// seed, or "" when none applies. cluster-sweep must reproduce
// fig5-sweep's figure byte for byte, so it is held to that digest.
func (r *reference) want(workload, scale string, seed uint64) string {
	if r == nil || seed != r.Seed {
		return ""
	}
	if workload == "cluster-sweep" {
		workload = "fig5-sweep"
	}
	return r.Digests[scale][workload]
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// figureBytes renders a figure's canonical output: the Figure.WriteJSON
// bytes every artifact and cluster merge is compared on.
func figureBytes(f *core.Figure) ([]byte, error) {
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
