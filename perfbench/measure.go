package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tally counts the operations an iteration attempted and the ones whose
// output failed a check. notes explains each failure.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.notes = append(t.notes, o.notes...)
}

// fail records one failed operation with its reason.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// sample is one timed iteration.
type sample struct {
	wall, cpu, allocMB, mallocs, rssMB float64
}

// measured is the outcome of a timed phase.
type measured struct {
	samples []sample
	tally   tally
}

// timeIterations runs w until budget is spent and finishes the
// iteration in progress, so a run holds at least one whole iteration,
// timing each with tracing off. Each iteration starts from a collected
// heap with freed memory returned to the OS and the resident-set
// high-water mark reset, so its rssMB is its own peak. Output checks run
// between iterations, outside the timed window.
func timeIterations(w workload, budget time.Duration) (measured, error) {
	var m measured
	start := time.Now()
	for {
		resetPeakRSS()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := cpuSeconds()
		t0 := time.Now()
		out, err := w.run()
		wall := time.Since(t0).Seconds()
		c1 := cpuSeconds()
		runtime.ReadMemStats(&m1)
		rss := peakRSSMB()
		if err != nil {
			return m, err
		}
		m.tally.add(w.check(out))
		m.samples = append(m.samples, sample{
			wall:    wall,
			cpu:     c1 - c0,
			allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
			mallocs: float64(m1.Mallocs - m0.Mallocs),
			rssMB:   rss,
		})
		if time.Since(start) >= budget {
			break
		}
	}
	return m, nil
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// column extracts one field of every sample.
func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// resetPeakRSS collects the heap, returns freed memory to the OS and
// restarts the kernel's resident-set high-water mark, so the next
// peakRSSMB covers only what follows. Where the reset is unavailable the
// mark spans the process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort; see peakRSSMB
}

// peakRSSMB is the resident-set high-water mark in MiB: VmHWM from
// /proc/self/status, falling back to getrusage's ru_maxrss.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
