// Package cache is a file-backed, content-addressed result store for
// the experiment pipeline. Entries are keyed by a results.Digest of the
// canonical (config, options, seed) description, so a re-run of an
// already-computed configuration — in this process, a later process, or
// another shard worker sharing the directory — is a cache hit that skips
// the simulation entirely.
//
// The store is safe for concurrent use within a process (campaign
// workers share one Store) and across processes on the same filesystem:
// writes go to a unique temp file and are published with an atomic
// rename, so readers never observe a partial entry and concurrent
// writers of the same key race benignly (both write identical bytes for
// a content-addressed key).
package cache

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"sensorfusion/internal/chaos"
)

// Store is one cache directory.
type Store struct {
	dir                string
	hits, misses, puts atomic.Int64
}

// Open creates the directory if needed and returns the store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Hits and Misses report Get outcomes since the store was opened — the
// test suite's "a warm re-run performs zero simulations" assertion reads
// Misses.
func (s *Store) Hits() int64   { return s.hits.Load() }
func (s *Store) Misses() int64 { return s.misses.Load() }

// Puts counts entries stored since the store was opened. Every Put in
// the experiment pipeline follows a freshly computed result, so the
// delta across an incremental `update` run counts exactly the
// configurations that were actually re-simulated in this process — the
// accounting behind "only the invalidated configs ran".
func (s *Store) Puts() int64 { return s.puts.Load() }

func (s *Store) path(key string) (string, error) {
	if err := validKey(key); err != nil {
		return "", err
	}
	return filepath.Join(s.dir, key+".json"), nil
}

// validKey confines keys to digest-shaped names so a corrupt key can
// never escape the cache directory.
func validKey(key string) error {
	if key == "" {
		return errors.New("cache: empty key")
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return fmt.Errorf("cache: invalid key %q", key)
		}
	}
	return nil
}

// Get unmarshals the entry for key into v, reporting whether it existed.
// A missing entry is not an error; a present-but-unreadable one is.
func (s *Store) Get(key string, v any) (bool, error) {
	p, err := s.path(key)
	if err != nil {
		return false, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		s.misses.Add(1)
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("cache: read %s: %w", key, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("cache: corrupt entry %s: %w", key, err)
	}
	s.hits.Add(1)
	return true, nil
}

// Put stores v under key atomically: marshal, write to a unique temp
// file in the same directory, rename into place.
func (s *Store) Put(key string, v any) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cache: marshal %s: %w", key, err)
	}
	if err := WriteFileAtomic(chaos.OS, p, data); err != nil {
		return fmt.Errorf("cache: publish %s: %w", key, err)
	}
	s.puts.Add(1)
	return nil
}

// Entry is one stored entry as Scan reports it: its key (the file name
// without the .json suffix) and raw serialized bytes.
type Entry struct {
	Key  string
	Data []byte
}

// Scan walks every entry in the store in sorted key order, calling fn
// with each entry's key and raw bytes. Files that are not cache entries
// (temp files from interrupted atomic writes, foreign names) are
// reported through stray instead, with the full path; pass nil to
// ignore them. Scan is the read side of the doctor workflow — it never
// modifies the directory. A scan racing a concurrent writer may observe
// or miss the in-flight entry; both are consistent snapshots.
func (s *Store) Scan(fn func(e Entry) error, stray func(path string)) error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cache: scan %s: %w", s.dir, err)
	}
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		key, isEntry := entryKey(name)
		if !isEntry {
			if stray != nil {
				stray(filepath.Join(s.dir, name))
			}
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // raced a concurrent remove; skip
			}
			return fmt.Errorf("cache: scan %s: %w", name, err)
		}
		if err := fn(Entry{Key: key, Data: data}); err != nil {
			return err
		}
	}
	return nil
}

// entryKey reports the cache key a directory entry name stores, or
// false for names that are not well-formed entries (temp files,
// foreign files).
func entryKey(name string) (string, bool) {
	key, ok := strings.CutSuffix(name, ".json")
	if !ok {
		return "", false
	}
	if validKey(key) != nil || strings.Contains(key, ".tmp") {
		return "", false
	}
	return key, true
}

// WriteFileAtomic publishes data at path with the store's crash-safety
// discipline: write to a unique temp file in the destination directory,
// fsync it, rename into place, then fsync the directory. Readers never
// observe a partial file, and after a power loss the destination holds
// either the old content or the complete new content — never an empty
// or torn file (rename without the surrounding fsyncs gives no such
// guarantee on common filesystems). A crash mid-write leaves at worst
// an orphaned temp file, and concurrent writers of identical content
// race benignly. The coordinator's shard manifest shares this helper so
// its crash-recovery contract is literally the cache's. Every file
// operation goes through fsys (chaos.OS outside fault-injection tests)
// — the chaos soak injects fsync and rename failures here to prove
// callers surface (and retry) durability errors instead of ignoring
// them.
func WriteFileAtomic(fsys chaos.FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	// CreateTemp's 0600 would make shared state directories (the
	// multi-process shard workflow) unreadable across users; match
	// os.Create's conventional mode.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	// Flush the content to stable storage BEFORE the rename publishes
	// it; otherwise a power loss after the (metadata-only) rename can
	// leave a zero-length or torn file under the final name.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	// Durably record the rename itself: fsync the parent directory so
	// the new directory entry survives power loss.
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Len counts the entries currently stored.
func (s *Store) Len() (int, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return 0, err
	}
	return len(matches), nil
}
