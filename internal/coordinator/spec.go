package coordinator

// The spec manifest (spec.json) is the incremental-recompute ledger: it
// records, next to the coordinator's progress manifest, the per-config
// content digest of every global enumeration index the campaign was
// computed for. A later run with an edited spec diffs its own digest
// list against this file to learn exactly which indices changed —
// nothing about wall times, shard layout, or worker counts participates,
// because none of those can change results. The file is written only
// AFTER a campaign completes and merges successfully, so its presence
// asserts "every digest listed here has a valid cache entry and a
// merged record".

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"sensorfusion/internal/cache"
	"sensorfusion/internal/chaos"
)

// specName is the spec manifest's file name inside the state directory.
const specName = "spec.json"

// specVersion guards the spec manifest's on-disk format.
const specVersion = 1

// SpecManifest is the persisted digest list of a completed campaign.
type SpecManifest struct {
	Version int `json:"version"`
	// Params is the campaign fingerprint the digests were computed
	// under (the same string the progress manifest records), so a spec
	// file can never be mistaken for another campaign's.
	Params string `json:"params"`
	// Digests holds one content digest per global enumeration index of
	// the campaign — digest k addresses both config k's cache entry and
	// its identity in the spec differ.
	Digests []string `json:"digests"`
}

// SpecPath names the spec manifest inside a state directory.
func SpecPath(stateDir string) string { return filepath.Join(stateDir, specName) }

// SaveSpec atomically publishes the spec manifest for a completed
// campaign.
func SaveSpec(stateDir string, params string, digests []string) error {
	for k, d := range digests {
		if d == "" || strings.ContainsAny(d, " \t\n") {
			return fmt.Errorf("coordinator: spec digest %d is malformed: %q", k, d)
		}
	}
	spec := SpecManifest{Version: specVersion, Params: params, Digests: digests}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("coordinator: marshal spec: %w", err)
	}
	if err := cache.WriteFileAtomic(chaos.OS, SpecPath(stateDir), append(data, '\n')); err != nil {
		return fmt.Errorf("coordinator: save spec: %w", err)
	}
	return nil
}

// LoadSpec reads a state directory's spec manifest, reporting
// (nil, nil) when none exists — a campaign that never completed.
func LoadSpec(stateDir string) (*SpecManifest, error) {
	data, err := os.ReadFile(SpecPath(stateDir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("coordinator: read spec: %w", err)
	}
	var spec SpecManifest
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("coordinator: corrupt spec %s: %w", SpecPath(stateDir), err)
	}
	if spec.Version != specVersion {
		return nil, fmt.Errorf("coordinator: spec version %d, want %d", spec.Version, specVersion)
	}
	return &spec, nil
}
