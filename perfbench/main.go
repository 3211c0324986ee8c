// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the public entry points of
// internal/experiments, internal/coordinator and the sensorfusion
// facade, checks every output against a reference computed in set-up,
// and prints the metrics as one JSON object on the last line of
// standard output.
//
//	perfbench --workload campaign_cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of timed, untraced
// iterations. With --trace 1 it alternates an untraced and a traced
// iteration and reports the per-layer metrics; the spans go to a
// trace-<workload>-seed<seed>.jsonl file in --workdir. README.md beside
// this file explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sensorfusion/internal/interval"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of --trace 0, per iteration unless noted.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MiB"},
	{"mallocs", "count"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of --trace 1. A metric of a layer the
// benchmark does not trace on a workload reads 0; README.md lists where
// each layer is traced.
var perLayer = []metricDef{
	{"campaign.tasks", "count"},
	{"campaign.busy_s", "s"},
	{"campaign.idle_s", "s"},
	{"campaign.tail_s", "s"},
	{"campaign.emit_s", "s"},
	{"sim.calls", "count"},
	{"sim.rounds", "count"},
	{"sim.self_s", "s"},
	{"sim.ns_per_round", "ns"},
	{"attack.plans", "count"},
	{"attack.plan_s", "s"},
	{"attack.ns_per_plan", "ns"},
	{"attack.plan_share", "ratio"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.puts", "count"},
	{"cache.lookup_s", "s"},
	{"cache.gets_per_config", "ratio"},
	{"results.records", "count"},
	{"results.bytes", "bytes"},
	{"results.write_s", "s"},
	{"coordinator.attempts", "count"},
	{"coordinator.shard_busy_s", "s"},
	{"coordinator.shard_max_s", "s"},
	{"coordinator.shard_phase_s", "s"},
	{"coordinator.merge_s", "s"},
	{"coordinator.state_bytes", "bytes"},
	{"scenarios.faults_s", "s"},
	{"scenarios.platoon_s", "s"},
	{"scenarios.consensus_s", "s"},
	{"scenarios.track_s", "s"},
	{"verdict.eval_s", "s"},
	{"verdict.verdicts", "count"},
	{"verdict.fail", "count"},
	{"trace.overhead_s", "s"},
}

// setupReps is how many times a timed run repeats set-up; setup_s is
// the median.
const setupReps = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: campaign_cold, campaign_warm, coordinate or scenarios")
	seed := flag.Int64("seed", 1, "workload seed (the root seed of every run)")
	seconds := flag.Float64("seconds", 15, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from traced iterations")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench-work"), "directory for scratch state and trace files")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(os.Stdout, *name, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, *workdir, fullSize); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// environment describes the run: results taken under another kernel,
// core count or toolchain are not comparable.
func environment(name string, seed int64, traced bool) map[string]any {
	return map[string]any{
		"workload":       name,
		"seed":           seed,
		"trace":          traced,
		"kernel":         interval.KernelName(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"go":             runtime.Version(),
		"engine_workers": engineWorkers,
	}
}

func run(out io.Writer, name string, seed int64, budget time.Duration, traced bool, workdir string, sz size) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(name, seed, sz, dir)
	if err != nil {
		return err
	}
	env := environment(name, seed, traced)
	var res result
	if traced {
		res, err = runTraced(out, w, name, seed, budget, workdir, env)
	} else {
		res, err = runTimed(out, w, budget)
	}
	if err != nil {
		return err
	}
	if f, ok := w.(interface{ findings() []string }); ok {
		for _, line := range f.findings() {
			fmt.Fprintln(out, "finding:", line)
		}
	}
	line, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(last))
	return nil
}

// runTimed repeats set-up, then times iterations with tracing off.
func runTimed(out io.Writer, w workload, budget time.Duration) (result, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	m, err := timeIterations(w, budget)
	if err != nil {
		return result{}, err
	}
	values := map[string]float64{
		"wall_s":      median(column(m.samples, func(s sample) float64 { return s.wall })),
		"setup_s":     median(setups),
		"cpu_s":       median(column(m.samples, func(s sample) float64 { return s.cpu })),
		"alloc_mb":    median(column(m.samples, func(s sample) float64 { return s.allocMB })),
		"mallocs":     median(column(m.samples, func(s sample) float64 { return s.mallocs })),
		"peak_rss_mb": median(column(m.samples, func(s sample) float64 { return s.rssMB })),
	}
	fmt.Fprintf(out, "iterations: %d, attempted %d, failed %d\n", len(m.samples), m.tally.attempted, m.tally.failed)
	fmt.Fprintf(out, "set-up s: %.3f\nwall_s per iteration: %.3f\ncpu_s per iteration: %.3f\n", setups,
		column(m.samples, func(s sample) float64 { return s.wall }), column(m.samples, func(s sample) float64 { return s.cpu }))
	return finish(out, m.tally, endToEnd, values), nil
}

// runTraced alternates an untraced and a traced iteration until the
// budget is spent (at least one pair) and reports the median of each
// per-layer metric over the pairs. trace.overhead_s is the traced
// iteration's wall time minus the untraced one's.
func runTraced(out io.Writer, w workload, name string, seed int64, budget time.Duration, workdir string, env map[string]any) (result, error) {
	if err := w.setup(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	var total tally
	perMetric := map[string][]float64{}
	start := time.Now()
	var pairWalls []float64
	for i := 0; ; i++ {
		t := time.Now()
		base, err := w.run()
		baseWall := time.Since(t).Seconds()
		if err != nil {
			return result{}, err
		}
		total.add(w.check(base))
		tr.setRun(fmt.Sprintf("%s-%d", name, i))
		it, err := w.trace(tr, base)
		if err != nil {
			return result{}, err
		}
		pairWalls = append(pairWalls, time.Since(t).Seconds())
		total.add(it.tally)
		it.metrics["trace.overhead_s"] = it.wall - baseWall
		for k, v := range it.metrics {
			perMetric[k] = append(perMetric[k], v)
		}
		if time.Since(start).Seconds()+median(pairWalls) > budget.Seconds() {
			break
		}
	}
	values := map[string]float64{}
	for k, vs := range perMetric {
		values[k] = median(vs)
	}
	path := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
	if err := tr.write(path, env); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "traced pairs: %d, spans in %s\n", len(pairWalls), path)
	return finish(out, total, perLayer, values), nil
}

// maxNotes bounds the failure notes printed per run; the count of
// failures is always complete.
const maxNotes = 20

// finish prints the failure notes and the metric table and builds the
// result object; metrics a run did not produce read 0.
func finish(out io.Writer, t tally, defs []metricDef, values map[string]float64) result {
	for i, n := range t.notes {
		if i == maxNotes {
			fmt.Fprintf(out, "FAILED: ... %d more\n", len(t.notes)-maxNotes)
			break
		}
		fmt.Fprintln(out, "FAILED:", n)
	}
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metricValue{},
	}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res
}
