package coordinator

// The chaos soak: every seed expands into a deterministic fault
// schedule (torn and short writes, EIO/ENOSPC, manifest rename/fsync
// failures, workers killed mid-stream, stragglers, and — for some
// seeds — a poisoned shard), the coordinator runs a synthetic campaign
// under it with every self-healing facility enabled, and the verdict
// is binary: a recoverable schedule must produce bytes IDENTICAL to
// the unsharded serial run, an unrecoverable one must degrade to a
// classified partial result that doctor explains and a clean resume
// completes. Each schedule runs twice to prove the same seed yields
// the same outcome. `make chaos` widens the sweep via CHAOS_SEEDS.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sensorfusion/internal/chaos"
	"sensorfusion/internal/results"
)

// soakSeeds reports how many seeded schedules to soak: CHAOS_SEEDS
// when set (`make chaos` sets 24), else a small default that keeps
// `go test` quick.
func soakSeeds(t *testing.T) int {
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("CHAOS_SEEDS = %q is not a positive integer", s)
		}
		return n
	}
	if testing.Short() {
		return 4
	}
	return 8
}

// chaosWorker wraps the clean synthetic worker with the schedule's
// process-level faults: poisoned shards fail identically on every
// attempt, delayed shards stall until the straggler deadline reaps
// them, and killed workers die after N records (optionally tearing
// half of one more mid-gzip-flush).
func chaosWorker(total int, sched *chaos.Schedule) WorkerFunc {
	clean := testWorker(total, nil, nil)
	return func(ctx context.Context, task Task, out, logw io.Writer) error {
		w, ok := sched.WorkerFault(task.Index, task.Attempt)
		if !ok {
			return clean(ctx, task, out, logw)
		}
		switch w.Kind {
		case chaos.WorkerPoison:
			return fmt.Errorf("chaos: shard %d input is poisoned", task.Index)
		case chaos.WorkerDelay:
			select {
			case <-time.After(w.Delay):
			case <-ctx.Done():
				return ctx.Err()
			}
			return clean(ctx, task, out, logw)
		case chaos.WorkerKill:
			return clean(ctx, task, chaos.NewKillWriter(out, w.AfterRecords, w.Torn), logw)
		}
		return clean(ctx, task, out, logw)
	}
}

// soakOutcome is the determinism signature of one soaked run: the
// merged bytes, whether it degraded, and which shards failed with
// which classification.
type soakOutcome struct {
	bytes   string
	partial bool
	failed  string
}

func soakRun(t *testing.T, seed int64, total, shards int) soakOutcome {
	t.Helper()
	opts := baseOptions(t, total, shards)
	sched := chaos.NewSchedule(seed, chaos.ScheduleOptions{
		Shards:       shards,
		ShardFile:    func(i int) string { return filepath.Base(shardFile("", i)) },
		ManifestFile: manifestName,
	})
	opts.Workers = 3
	opts.FS = sched.Injector(chaos.OS)
	opts.Run = chaosWorker(total, sched)
	opts.Partial = true
	opts.Seed = seed
	opts.MaxAttempts = 6 // spread-out faults can burn several attempts on one shard
	opts.RetryBase = time.Millisecond
	opts.RetryMax = 4 * time.Millisecond
	opts.ShardTimeout = 250 * time.Millisecond // reaps the 10s delay faults
	var buf bytes.Buffer
	opts.Sink = results.NewJSONL(&buf)

	res, err := Coordinate(opts)
	if err != nil {
		t.Fatalf("schedule %s: Coordinate: %v", sched.Describe(), err)
	}

	poisoned := map[int]bool{}
	for _, w := range sched.Workers {
		if w.Kind == chaos.WorkerPoison {
			poisoned[w.Shard] = true
		}
	}
	var failed []string
	for _, f := range res.Failed {
		failed = append(failed, fmt.Sprintf("%d:%s", f.Shard, f.Class))
	}

	if sched.Recoverable() {
		if res.Partial {
			t.Fatalf("schedule %s: recoverable schedule degraded to partial (failed: %v)", sched.Describe(), failed)
		}
		if got, want := buf.String(), serialBytes(t, total); got != want {
			t.Fatalf("schedule %s: healed run is not byte-identical to the serial reference", sched.Describe())
		}
		return soakOutcome{bytes: buf.String()}
	}

	// Unrecoverable: exactly the poisoned shards fail, classified
	// permanent, everything else heals and merges.
	if !res.Partial {
		t.Fatalf("schedule %s: poisoned schedule did not degrade to partial", sched.Describe())
	}
	if len(res.Failed) != len(poisoned) {
		t.Fatalf("schedule %s: failed shards %v, want exactly the poisoned set %v", sched.Describe(), failed, poisoned)
	}
	for _, f := range res.Failed {
		if !poisoned[f.Shard] {
			t.Fatalf("schedule %s: shard %d failed terminally but was not poisoned (%s: %s)", sched.Describe(), f.Shard, f.Class, f.Error)
		}
		if f.Class != string(FailPermanent) {
			t.Fatalf("schedule %s: poisoned shard %d classified %q, want %q", sched.Describe(), f.Shard, f.Class, FailPermanent)
		}
	}
	keep := func(k int) bool { return !poisoned[k%shards] }
	if got, want := buf.String(), subsetBytes(t, total, keep); got != want {
		t.Fatalf("schedule %s: partial merge differs from the done-shard subset", sched.Describe())
	}
	if rep, err := LoadPartial(opts.StateDir); err != nil || rep == nil {
		t.Fatalf("schedule %s: LoadPartial = %+v, %v", sched.Describe(), rep, err)
	}
	findings, err := DoctorState(opts.StateDir, "repro")
	if err != nil {
		t.Fatal(err)
	}
	sawPartial := false
	for _, fd := range findings {
		if fd.Code == "partial-result" {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatalf("schedule %s: doctor missed the partial result: %+v", sched.Describe(), findings)
	}

	// A clean resume (no injector, clean worker) completes the campaign
	// and retires the report.
	resume := opts
	resume.Resume = true
	resume.FS = chaos.OS
	resume.Run = testWorker(total, nil, nil)
	var buf2 bytes.Buffer
	resume.Sink = results.NewJSONL(&buf2)
	res2, err := Coordinate(resume)
	if err != nil {
		t.Fatalf("schedule %s: clean resume: %v", sched.Describe(), err)
	}
	if res2.Partial || buf2.String() != serialBytes(t, total) {
		t.Fatalf("schedule %s: clean resume did not complete the campaign", sched.Describe())
	}
	if _, err := os.Stat(PartialPath(opts.StateDir)); !os.IsNotExist(err) {
		t.Fatalf("schedule %s: partial.json survived a full run, stat err = %v", sched.Describe(), err)
	}

	return soakOutcome{bytes: buf.String(), partial: true, failed: strings.Join(failed, ",")}
}

// TestChaosSoak drives the coordinator through seeded fault schedules
// and holds it to the harness's two contracts: recoverable schedules
// heal to byte-identity, unrecoverable ones degrade to a classified
// partial result — and the same seed always produces the same outcome.
func TestChaosSoak(t *testing.T) {
	const total, shards = 30, 5
	for seed := int64(1); seed <= int64(soakSeeds(t)); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			first := soakRun(t, seed, total, shards)
			second := soakRun(t, seed, total, shards)
			if first != second {
				t.Fatalf("seed %d: two runs of the same schedule diverged:\n first: partial=%v failed=%q\nsecond: partial=%v failed=%q",
					seed, first.partial, first.failed, second.partial, second.failed)
			}
		})
	}
}
