package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"sensorfusion/internal/attack"
	"sensorfusion/internal/interval"
	"sensorfusion/internal/results"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Start and End are nanoseconds since the tracer was
// created; Parent is 0 for a root span. Counters aggregate work done
// inside the span that is too frequent to give spans of its own.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Run      string             `json:"run"`
	Name     string             `json:"name"`
	Start    int64              `json:"start_ns"`
	End      int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: engine workers open and close task spans in parallel.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRun tags the spans opened from now on with a run id.
func (t *tracer) setRun(id string) {
	t.mu.Lock()
	t.run = id
	t.mu.Unlock()
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id, attaching counters (may be nil).
func (t *tracer) end(id int, counters map[string]float64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counters = counters
}

// runSpans returns the closed spans of the current run id.
func (t *tracer) runSpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Run == t.run && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span, one JSON object per line, after a header
// line describing the environment.
func (t *tracer) write(path string, env map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// named filters spans by name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func sumDur(spans []span) float64 {
	var total float64
	for _, s := range spans {
		total += s.dur()
	}
	return total
}

func sumCounter(spans []span, key string) float64 {
	var total float64
	for _, s := range spans {
		total += s.Counters[key]
	}
	return total
}

// engineStats derives the engine's layer metrics from one engine span
// and the task spans that ran under it: busy is the summed task time,
// idle is what the worker pool had left (workers × wall − busy), and
// tail is the time during which fewer tasks ran than there are workers.
func engineStats(engine span, tasks []span, workers int) (busy, idle, tail float64) {
	type event struct {
		at    int64
		delta int
	}
	events := make([]event, 0, 2*len(tasks))
	for _, s := range tasks {
		busy += s.dur()
		events = append(events, event{s.Start, +1}, event{s.End, -1})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return events[a].delta < events[b].delta
	})
	wall := engine.dur()
	idle = float64(workers)*wall - busy
	running, last := 0, engine.Start
	var tailNS int64
	for _, e := range events {
		if running < workers && e.at > last {
			tailNS += e.at - last
		}
		if e.at > last {
			last = e.at
		}
		running += e.delta
	}
	if running < workers && engine.End > last {
		tailNS += engine.End - last
	}
	return busy, idle, float64(tailNS) / 1e9
}

// simStats splits the time of the sim.ExpectedWidth spans into the
// attacker's Plan time (counted inside each span) and the rest.
func simStats(sims []span) (total, plan, self float64) {
	total = sumDur(sims)
	plan = sumCounter(sims, "plan_ns") / 1e9
	return total, plan, total - plan
}

// timedOptimal is the traced run's attack.Strategy: attack.NewOptimal()
// with each Plan call counted and timed. The counts go into the
// surrounding span's counters, not into a span per call.
type timedOptimal struct {
	inner     *attack.Optimal
	plans, ns int64
}

func newTimedOptimal() *timedOptimal { return &timedOptimal{inner: attack.NewOptimal()} }

// Plan times one call into the optimal attacker.
func (s *timedOptimal) Plan(ctx attack.Context) []interval.Interval {
	t := time.Now()
	p := s.inner.Plan(ctx)
	s.ns += time.Since(t).Nanoseconds()
	s.plans++
	return p
}

// Name reports the wrapped strategy's name.
func (s *timedOptimal) Name() string { return s.inner.Name() }

// timedSink wraps a results.Sink, counting records and timing Write
// calls; first is when the first record arrived.
type timedSink struct {
	next    results.Sink
	records int
	ns      int64
	first   time.Time
}

// Write times one record's way through the wrapped sink.
func (s *timedSink) Write(rec results.Record) error {
	t := time.Now()
	if s.records == 0 {
		s.first = t
	}
	err := s.next.Write(rec)
	s.ns += time.Since(t).Nanoseconds()
	s.records++
	return err
}

// Flush flushes the wrapped sink.
func (s *timedSink) Flush() error { return s.next.Flush() }
