package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the benchmark's output
// must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesMatchSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, specNames, specUnits []string) {
		if len(defs) != len(specNames) {
			t.Errorf("%s: perfbench reports %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(specNames))
			return
		}
		for i, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("%s metric %q does not match %s", kind, d.name, metricName)
			}
			if !unitName.MatchString(d.unit) {
				t.Errorf("%s metric %q: unit %q does not match %s", kind, d.name, d.unit, unitName)
			}
			if seen[d.name] {
				t.Errorf("metric %q used twice", d.name)
			}
			seen[d.name] = true
			if d.name != specNames[i] || d.unit != specUnits[i] {
				t.Errorf("%s metric %d: perfbench has %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, specNames[i], specUnits[i])
			}
		}
	}
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if strings.Join(wl, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: perfbench has %v, BENCHMARK.json %v", workloadNames, wl)
	}
}

const eps = 1e-9

func TestEngineStats(t *testing.T) {
	s := func(start, end float64) span {
		return span{Start: int64(start * 1e9), End: int64(end * 1e9)}
	}
	engine := s(0, 10)
	// Two workers: both busy over [0,6], one over [6,9], none over [9,10].
	tasks := []span{s(0, 4), s(0, 6), s(4, 9)}
	busy, idle, tail := engineStats(engine, tasks, 2)
	if math.Abs(busy-15) > eps || math.Abs(idle-5) > eps || math.Abs(tail-4) > eps {
		t.Fatalf("busy, idle, tail = %v, %v, %v; want 15, 5, 4", busy, idle, tail)
	}
	if math.Abs(busy+idle-2*engine.dur()) > eps {
		t.Fatalf("busy + idle = %v, want workers × wall = %v", busy+idle, 2*engine.dur())
	}
}

func TestSimStats(t *testing.T) {
	sims := []span{
		{Start: 0, End: 3e9, Counters: map[string]float64{"plan_ns": 2e9}},
		{Start: 1e9, End: 2e9},
	}
	total, plan, self := simStats(sims)
	if total != 4 || plan != 2 || self != 2 {
		t.Fatalf("total, plan, self = %v, %v, %v; want 4, 2, 2", total, plan, self)
	}
}

// TestColdTraceIdentities runs one traced pair of a tiny campaign_cold
// and checks the layer identities on its spans and metrics.
func TestColdTraceIdentities(t *testing.T) {
	w, err := newWorkload("campaign_cold", 7, tinySize, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	base, err := w.run()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	it, err := w.trace(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	if it.tally.failed != 0 {
		t.Fatalf("traced run failed its checks: %v", it.tally.notes)
	}
	m := it.metrics
	spans := tr.runSpans()
	engine := named(spans, "campaign.StreamBatched")[0]
	if got, want := m["campaign.busy_s"]+m["campaign.idle_s"], engineWorkers*engine.dur(); math.Abs(got-want) > eps {
		t.Errorf("campaign.busy_s + campaign.idle_s = %v, want workers × wall = %v", got, want)
	}
	total, _, _ := simStats(named(spans, "sim.ExpectedWidth"))
	if got := m["sim.self_s"] + m["attack.plan_s"]; math.Abs(got-total) > eps {
		t.Errorf("sim.self_s + attack.plan_s = %v, want the sim total %v", got, total)
	}
	if m["campaign.tasks"] != float64(partCount*len(tinySize.coldSlice)) || m["sim.calls"] != m["campaign.tasks"] {
		t.Errorf("campaign.tasks = %v, sim.calls = %v; want %d each", m["campaign.tasks"], m["sim.calls"], partCount*len(tinySize.coldSlice))
	}
	if m["attack.plans"] <= 0 || m["sim.rounds"] <= 0 {
		t.Errorf("attack.plans = %v, sim.rounds = %v; want both > 0", m["attack.plans"], m["sim.rounds"])
	}
}

// TestCheckCatchesMismatch makes sure a changed record fails the check.
func TestCheckCatchesMismatch(t *testing.T) {
	w, err := newWorkload("campaign_cold", 7, tinySize, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	ref := w.(*coldWorkload).ref
	bad := bytes.Replace(ref, []byte(`"asc":`), []byte(`"asc":1`), 1)
	if tl := w.check(bad); tl.failed != 1 || tl.attempted != len(tinySize.coldSlice) {
		t.Fatalf("check of a corrupted stream: attempted %d, failed %d; want %d, 1", tl.attempted, tl.failed, len(tinySize.coldSlice))
	}
	if tl := checkReplica(ref, make([][partCount]float64, len(tinySize.coldSlice))); tl.failed == 0 {
		t.Fatal("replica check accepted all-zero values")
	}
}

// tracedOn names, per workload, per-layer metrics its traced run must
// report as positive: the layers the README says are traced there.
var tracedOn = map[string][]string{
	"campaign_cold": {"campaign.tasks", "campaign.busy_s", "sim.calls", "sim.rounds", "attack.plans", "attack.plan_s"},
	"campaign_warm": {"cache.hits", "cache.lookup_s", "cache.gets_per_config", "results.records", "results.bytes"},
	"coordinate": {"cache.misses", "cache.puts", "cache.lookup_s", "results.records", "coordinator.attempts",
		"coordinator.shard_phase_s", "coordinator.merge_s", "coordinator.state_bytes"},
	"scenarios": {"scenarios.faults_s", "scenarios.platoon_s", "scenarios.consensus_s", "scenarios.track_s",
		"verdict.verdicts", "results.records"},
}

// TestSmoke runs every workload at the tiny size, timed and traced, and
// checks the printed result object.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			if err := run(&out, name, 3, time.Millisecond, traced, t.TempDir(), tinySize); err != nil {
				t.Fatalf("%s (trace %t): %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s (trace %t): last line: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %t): correct %t, attempted %d, failed %d\n%s", name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %t): %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("%s (trace %t): metric %s missing or with unit %q", name, traced, d.name, v.Unit)
				}
			}
			positive := []string{"wall_s", "setup_s", "cpu_s", "alloc_mb", "mallocs", "peak_rss_mb"}
			if traced {
				positive = tracedOn[name]
			}
			for _, k := range positive {
				if res.Metrics[k].Value <= 0 {
					t.Errorf("%s (trace %t): %s = %v, want > 0", name, traced, k, res.Metrics[k].Value)
				}
			}
		}
	}
}
