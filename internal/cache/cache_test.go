package cache

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sensorfusion/internal/chaos"
)

type entry struct {
	Name   string
	Values []float64
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := entry{Name: "n=3, fa=1", Values: []float64{10.77, 13.58}}
	var got entry
	if hit, err := s.Get("abc123", &got); err != nil || hit {
		t.Fatalf("cold get: hit=%v err=%v", hit, err)
	}
	if err := s.Put("abc123", want); err != nil {
		t.Fatal(err)
	}
	hit, err := s.Get("abc123", &got)
	if err != nil || !hit {
		t.Fatalf("warm get: hit=%v err=%v", hit, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if s.Hits() != 1 || s.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", s.Hits(), s.Misses())
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("len=%d err=%v", n, err)
	}
}

func TestEntriesAreWorldReadable(t *testing.T) {
	// Shared cache directories serve multiple shard processes, possibly
	// under different users; CreateTemp's 0600 must not survive Put.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("abcdef0123456789", entry{Name: "shared"}); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, "abcdef0123456789.json"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm()&0o044 == 0 {
		t.Fatalf("cache entry not group/world readable: %v", info.Mode())
	}
}

func TestEntriesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("deadbeef00000000", entry{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got entry
	if hit, err := s2.Get("deadbeef00000000", &got); err != nil || !hit || got.Name != "x" {
		t.Fatalf("reopened store: hit=%v err=%v got=%+v", hit, err, got)
	}
	if s2.Misses() != 0 {
		t.Fatalf("reopened store counted %d misses", s2.Misses())
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "a/b", "a.b", "key with space"} {
		if err := s.Put(key, entry{}); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
		var e entry
		if _, err := s.Get(key, &e); err == nil {
			t.Errorf("Get(%q) accepted", key)
		}
	}
}

func TestCorruptEntryIsAnError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "badbadbadbadbad0.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	var e entry
	if _, err := s.Get("badbadbadbadbad0", &e); err == nil {
		t.Fatal("corrupt entry read as a hit or miss")
	}
}

func TestConcurrentSameKeyPuts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := entry{Name: "shared", Values: []float64{1, 2, 3}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := s.Put("sharedkey", want); err != nil {
					t.Error(err)
					return
				}
				var got entry
				if hit, err := s.Get("sharedkey", &got); err != nil {
					t.Error(err)
					return
				} else if hit && !reflect.DeepEqual(got, want) {
					t.Errorf("partial entry observed: %+v", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("len=%d err=%v (temp files leaked?)", n, err)
	}
}

// TestWriteFileAtomic: published files appear whole with conventional
// permissions and no temp residue.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "manifest.json")
	if err := WriteFileAtomic(chaos.OS, p, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(chaos.OS, p, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil || string(data) != "v2" {
		t.Fatalf("read back %q, err %v", data, err)
	}
	info, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm()&0o044 == 0 {
		t.Fatalf("atomic write left file unreadable: %v", info.Mode())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp residue left behind: %v", entries)
	}
}

// TestWriteFileAtomicSyncsBeforePublish pins the durability contract:
// the temp file is fsynced before the rename, and a failing fsync
// aborts the publish (old content stays, no temp residue). Without the
// pre-rename fsync an injected OpSync fault on the temp file would
// never fire and the write would "succeed".
func TestWriteFileAtomicSyncsBeforePublish(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "manifest.json")
	if err := WriteFileAtomic(chaos.OS, p, []byte("old")); err != nil {
		t.Fatal(err)
	}
	in := chaos.NewInjector(chaos.OS,
		chaos.Fault{Op: chaos.OpSync, Path: "manifest.json", Nth: 1, Kind: chaos.KindEIO},
	)
	err := WriteFileAtomic(in, p, []byte("new"))
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("fsync failure must abort the publish, got err=%v", err)
	}
	data, rerr := os.ReadFile(p)
	if rerr != nil || string(data) != "old" {
		t.Fatalf("failed publish must leave old content, got %q err=%v", data, rerr)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != 1 {
		t.Fatalf("failed publish left temp residue: %v", entries)
	}
	if len(in.Fired()) != 1 {
		t.Fatalf("expected exactly the temp-file fsync to trip, fired=%v", in.Fired())
	}
}

// TestWriteFileAtomicSyncsDirectory pins the second half of the
// contract: after the rename, the parent directory is fsynced (and a
// failure there is reported, not swallowed).
func TestWriteFileAtomicSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "spec.json")
	in := chaos.NewInjector(chaos.OS,
		chaos.Fault{Op: chaos.OpSync, Path: filepath.Base(dir), Nth: 1, Kind: chaos.KindEIO},
	)
	err := WriteFileAtomic(in, p, []byte("data"))
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("directory fsync failure must be reported, got err=%v", err)
	}
}

func TestScanAndPuts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Puts() != 0 {
		t.Fatalf("fresh store reports %d puts", s.Puts())
	}
	for _, key := range []string{"bbb", "aaa", "ccc"} {
		if err := s.Put(key, entry{Name: key}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Puts() != 3 {
		t.Fatalf("puts = %d, want 3", s.Puts())
	}
	// Non-entry files route to the stray callback, never to fn: a
	// leftover atomic-write temp file and a foreign file.
	for _, name := range []string{"abc.json.tmp123", "README"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	var strays []string
	err = s.Scan(func(e Entry) error {
		keys = append(keys, e.Key)
		if len(e.Data) == 0 {
			t.Fatalf("entry %s scanned empty", e.Key)
		}
		return nil
	}, func(path string) {
		strays = append(strays, filepath.Base(path))
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"aaa", "bbb", "ccc"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("scanned keys %v, want sorted %v", keys, want)
	}
	if want := []string{"README", "abc.json.tmp123"}; !reflect.DeepEqual(strays, want) {
		t.Fatalf("strays %v, want %v", strays, want)
	}
}
