package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"sensorfusion/internal/cache"
	"sensorfusion/internal/results"
)

// TestCostEstimateMonotone: the estimate must rank configurations
// sensibly — wider sensors, more sensors, and more attacked sensors
// all cost more — and be a pure function of result-bearing options.
func TestCostEstimateMonotone(t *testing.T) {
	opts := Table1Options{MeasureStep: 1, AttackerStep: 1}
	base := Table1Config{Widths: []float64{5, 8, 11}, Fa: 1}
	wider := Table1Config{Widths: []float64{5, 8, 20}, Fa: 1}
	more := Table1Config{Widths: []float64{5, 8, 11, 11}, Fa: 1}
	moreFa := Table1Config{Widths: []float64{5, 8, 11, 11, 11}, Fa: 2}
	lessFa := Table1Config{Widths: []float64{5, 8, 11, 11, 11}, Fa: 1}
	c := func(cfg Table1Config) float64 { return CostEstimate(cfg, opts) }
	if !(c(wider) > c(base)) {
		t.Fatalf("wider config not costlier: %g vs %g", c(wider), c(base))
	}
	if !(c(more) > c(base)) {
		t.Fatalf("more sensors not costlier: %g vs %g", c(more), c(base))
	}
	if !(c(moreFa) > c(lessFa)) {
		t.Fatalf("more attacked sensors not costlier: %g vs %g", c(moreFa), c(lessFa))
	}
	if c(base) != CostEstimate(base, opts) {
		t.Fatal("estimate not deterministic")
	}
	// A finer measurement grid multiplies the combination count.
	fine := Table1Options{MeasureStep: 0.5, AttackerStep: 1}
	if !(CostEstimate(base, fine) > c(base)) {
		t.Fatal("finer grid not costlier")
	}
}

// TestCostEstimateSpreadJustifiesBalancing: across the real campaign
// enumeration the cost spread is wide (that spread is the whole reason
// static equal-count shards straggle).
func TestCostEstimateSpreadJustifiesBalancing(t *testing.T) {
	costs, err := (CampaignOptions{}).PlannedCosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != len(EnumerateSweepConfigs()) {
		t.Fatalf("%d costs for %d configs", len(costs), len(EnumerateSweepConfigs()))
	}
	min, max := costs[0], costs[0]
	for _, c := range costs {
		if c <= 0 {
			t.Fatalf("nonpositive cost %g", c)
		}
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max < 100*min {
		t.Fatalf("cost spread only %gx — the campaign should span orders of magnitude (min %g, max %g)",
			max/min, min, max)
	}
}

func TestFormatParseIndexSet(t *testing.T) {
	for _, tc := range []struct {
		indices []int
		want    string
	}{
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{5}, "5,"},
		{[]int{0, 2, 3, 4, 9}, "0,2-4,9"},
		{[]int{7, 8, 10}, "7-8,10"},
	} {
		got := FormatIndexSet(tc.indices)
		if got != tc.want {
			t.Errorf("FormatIndexSet(%v) = %q, want %q", tc.indices, got, tc.want)
		}
		back, err := ParseIndexSet(got)
		if err != nil || !reflect.DeepEqual(back, tc.indices) {
			t.Errorf("round-trip %q -> %v (%v)", got, back, err)
		}
	}
	for _, bad := range []string{"", ",", "3-1", "2,2", "5,3", "-4", "x"} {
		if _, err := ParseIndexSet(bad); err == nil {
			t.Errorf("ParseIndexSet(%q) accepted", bad)
		}
	}
}

func TestFitCostModel(t *testing.T) {
	m, ok := FitCostModel([]float64{100, 300}, []time.Duration{time.Second, 3 * time.Second})
	if !ok || !m.Valid() {
		t.Fatal("fit failed on clean data")
	}
	if got := m.Estimate(200); got != 2*time.Second {
		t.Fatalf("Estimate(200) = %v, want 2s", got)
	}
	if _, ok := FitCostModel(nil, nil); ok {
		t.Fatal("empty fit reported ok")
	}
	if _, ok := FitCostModel([]float64{0, -1}, []time.Duration{time.Second, time.Second}); ok {
		t.Fatal("degenerate fit reported ok")
	}
	if m.Estimate(0) != 0 || (CostModel{}).Estimate(50) != 0 {
		t.Fatal("zero-unit or uncalibrated estimate not zero")
	}
}

// TestExplicitShardPartitionMerges: cutting the campaign into explicit
// cost-ordered index sets (the coordinator's balanced form) merges
// byte-identically to the unsharded stream, exactly like the modular
// form.
func TestExplicitShardPartitionMerges(t *testing.T) {
	cfgs := EnumerateSweepConfigs()[:9]
	unsharded := streamCampaignJSONL(t, CampaignOptions{Table1Options: coarse(2), Configs: cfgs})
	// A deliberately unbalanced explicit partition.
	partition := [][]int{{0, 7, 8}, {2}, {1, 3, 4, 5, 6}}
	var all []results.Record
	for _, indices := range partition {
		shard := streamCampaignJSONL(t, CampaignOptions{
			Table1Options: coarse(2), Configs: cfgs,
			Shard: ShardSpec{Indices: indices},
		})
		recs, err := results.ReadJSONL(bytes.NewReader(shard))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(indices) {
			t.Fatalf("shard %v produced %d records", indices, len(recs))
		}
		for k, rec := range recs {
			if rec.Index != indices[k] {
				t.Fatalf("shard %v record %d has global index %d", indices, k, rec.Index)
			}
		}
		all = append(all, recs...)
	}
	var merged bytes.Buffer
	if err := results.MergeInto(all, results.NewJSONL(&merged), len(cfgs)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), unsharded) {
		t.Fatal("explicit-shard merge differs from unsharded stream")
	}
}

// TestCampaignBatchInvariant: the Batch knob must never change bytes.
func TestCampaignBatchInvariant(t *testing.T) {
	cfgs := EnumerateSweepConfigs()[:7]
	ref := streamCampaignJSONL(t, CampaignOptions{Table1Options: coarse(3), Configs: cfgs})
	for _, batch := range []int{2, 3, 7, 50} {
		o := coarse(3)
		o.Batch = batch
		got := streamCampaignJSONL(t, CampaignOptions{Table1Options: o, Configs: cfgs})
		if !bytes.Equal(got, ref) {
			t.Fatalf("batch=%d changed the stream:\n%s\n--- vs ---\n%s", batch, got, ref)
		}
	}
}

// TestMeasuredCostRoundTrip: computing a configuration against a cache
// records its wall time; MeasuredCost reads it back, and a cache hit
// replays the row without refreshing the measurement's identity.
func TestMeasuredCostRoundTrip(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Table1Options{MaxExact: 100, MCSamples: 30, Parallel: 1, Cache: store}
	cfg := Table1Config{Name: "t", Widths: []float64{5, 8, 11}, Fa: 1}
	if _, ok, err := MeasuredCost(cfg, opts); err != nil || ok {
		t.Fatalf("measurement before computation: ok=%v err=%v", ok, err)
	}
	if _, err := Table1Run(cfg, opts); err != nil {
		t.Fatal(err)
	}
	d, ok, err := MeasuredCost(cfg, opts)
	if err != nil || !ok || d <= 0 {
		t.Fatalf("after computation: d=%v ok=%v err=%v", d, ok, err)
	}
	// Without a cache there is nothing to read.
	if _, ok, err := MeasuredCost(cfg, Table1Options{}); err != nil || ok {
		t.Fatalf("cacheless MeasuredCost: ok=%v err=%v", ok, err)
	}
}

// TestDigestlessCacheEntryRefused: an entry without a self-digest is
// misplaced or corrupt like one with a wrong digest — Table1Run refuses
// to replay it and points at the doctor, and MeasuredCost ignores its
// timing.
func TestDigestlessCacheEntryRefused(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Table1Options{MaxExact: 100, MCSamples: 30, Parallel: 1, Cache: store}
	cfg := Table1Config{Name: "t", Widths: []float64{5, 8, 11}, Fa: 1}
	row, err := Table1Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := opts.withDefaults().digest(cfg)
	if err := store.Put(key, table1Entry{Table1Row: row, ElapsedNS: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := Table1Run(cfg, opts); err == nil || !strings.Contains(err.Error(), "repro doctor -cache "+store.Dir()) {
		t.Fatalf("digest-less entry replayed: %v", err)
	}
	if _, ok, err := MeasuredCost(cfg, opts); err != nil || ok {
		t.Fatalf("digest-less entry measured: ok=%v err=%v", ok, err)
	}
}

// TestCalibratedCostsPrefersMeasured: measured configurations keep
// their real nanoseconds; unmeasured ones are converted through the
// rate fitted from the measured pairs; with no measurements the
// analytic vector passes through unchanged.
func TestCalibratedCostsPrefersMeasured(t *testing.T) {
	analytic := []float64{100, 200, 400}
	measured := []time.Duration{0, 1_000_000, 0} // only index 1 measured: 1ms for 200 units
	got := CalibratedCosts(analytic, measured)
	if got[1] != 1e6 {
		t.Fatalf("measured config cost = %v, want its own nanoseconds 1e6", got[1])
	}
	// Fitted rate: 1e6 ns / 200 units = 5000 ns/unit.
	if got[0] != 100*5000 || got[2] != 400*5000 {
		t.Fatalf("unmeasured configs = %v, want analytic x 5000", got)
	}
	// Ranking monotone with the analytic estimate here, and the vector
	// unchanged when nothing was measured.
	same := CalibratedCosts(analytic, make([]time.Duration, 3))
	if !reflect.DeepEqual(same, analytic) {
		t.Fatalf("no measurements: got %v, want analytic unchanged", same)
	}
}

// TestMeasuredCostsAlignsWithPlan: the measured vector aligns with
// plan() order and flags when at least one measurement exists.
func TestMeasuredCostsAlignsWithPlan(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Table1Config{
		{Name: "a", Widths: []float64{5, 8, 11}, Fa: 1},
		{Name: "b", Widths: []float64{5, 5, 8}, Fa: 1},
	}
	opts := CampaignOptions{
		Table1Options: Table1Options{MaxExact: 100, MCSamples: 30, Parallel: 1, Cache: store},
		Configs:       cfgs,
	}
	measured, any, err := opts.MeasuredCosts()
	if err != nil || any || len(measured) != 2 {
		t.Fatalf("cold cache: measured=%v any=%v err=%v", measured, any, err)
	}
	if _, err := Table1Run(cfgs[1], opts.Table1Options); err != nil {
		t.Fatal(err)
	}
	measured, any, err = opts.MeasuredCosts()
	if err != nil || !any {
		t.Fatalf("warm cache: any=%v err=%v", any, err)
	}
	if measured[0] != 0 || measured[1] <= 0 {
		t.Fatalf("measured vector misaligned with plan order: %v", measured)
	}
}
