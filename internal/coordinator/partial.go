package coordinator

// This file is the graceful-degradation ledger: when a Partial-mode run
// ends with terminally failed shards, the completed shards still merge
// into a usable result and partial.json records exactly what is missing
// and why. `repro doctor` recognizes the report (the "partial-result"
// finding) and `repro coordinate -resume` completes the campaign —
// resume revalidates failed shards like any other incomplete shard and
// re-runs them, and a fully successful run deletes the report.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"sensorfusion/internal/cache"
	"sensorfusion/internal/chaos"
)

// partialName is the partial-result report's file name inside the state
// directory.
const partialName = "partial.json"

// partialVersion guards the report's on-disk format.
const partialVersion = 1

// FailedShard is one terminally failed shard in a partial result.
type FailedShard struct {
	// Shard is the failed shard's slot number.
	Shard int `json:"shard"`
	// Attempts is how many worker launches the shard burned.
	Attempts int `json:"attempts"`
	// Class is the terminal failure's classification (a FailClass
	// string: "transient-io", "straggler", or "permanent").
	Class string `json:"class"`
	// Error is the last attempt's error text.
	Error string `json:"error"`
}

// PartialReport is the partial.json account a degraded Partial-mode run
// writes: which records merged, which are missing, and why each failed
// shard failed. The report is deterministic — no timestamps — so the
// same seed's chaos schedule reproduces it byte for byte.
type PartialReport struct {
	// Version guards the format.
	Version int `json:"version"`
	// Params is the campaign fingerprint (matches the manifest's).
	Params string `json:"params"`
	// Total is the campaign's planned record count.
	Total int `json:"total"`
	// Merged is how many records the partial merge delivered.
	Merged int `json:"merged"`
	// Missing is the absent global index set in compact range form.
	Missing string `json:"missing"`
	// Failed lists the terminally failed shards with their
	// classifications.
	Failed []FailedShard `json:"failed"`
}

// PartialPath names the partial-result report inside a state directory.
func PartialPath(stateDir string) string { return filepath.Join(stateDir, partialName) }

// save publishes the report with the state layer's atomic+durable write
// discipline.
func (r *PartialReport) save(fsys chaos.FS, stateDir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("coordinator: marshal partial report: %w", err)
	}
	if err := cache.WriteFileAtomic(fsys, PartialPath(stateDir), append(data, '\n')); err != nil {
		return fmt.Errorf("coordinator: save partial report: %w", err)
	}
	return nil
}

// LoadPartial reads a state directory's partial-result report,
// reporting (nil, nil) when none exists.
func LoadPartial(stateDir string) (*PartialReport, error) {
	data, err := os.ReadFile(PartialPath(stateDir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("coordinator: read partial report: %w", err)
	}
	var r PartialReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("coordinator: corrupt partial report %s: %w", PartialPath(stateDir), err)
	}
	if r.Version != partialVersion {
		return nil, fmt.Errorf("coordinator: partial report version %d, want %d", r.Version, partialVersion)
	}
	return &r, nil
}
