package main

import (
	"bufio"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"
)

// stream renders benchmark lines as a test2json event stream, the way
// `go test -json` wraps them.
func stream(lines ...string) string {
	var b strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&b, `{"Action":"output","Package":"p","Output":"%s\n"}`+"\n", l)
	}
	b.WriteString(`{"Action":"pass","Package":"p"}` + "\n")
	return b.String()
}

func parse(t *testing.T, s string) map[string]result {
	t.Helper()
	out, err := parseBench(bufio.NewScanner(strings.NewReader(s)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestParseBenchExtractsTimeAndAllocs(t *testing.T) {
	got := parse(t, stream(
		`BenchmarkFuserReuse-8 \t 1000000 \t 105.2 ns/op \t 0 B/op \t 0 allocs/op`,
		`BenchmarkTable1_Row1-8 \t 2 \t 12954612 ns/op \t 9.648 E|S|asc \t 261266 B/op \t 2116 allocs/op`,
		`BenchmarkNoAllocsReported-8 \t 10 \t 50.0 ns/op`,
		`some unrelated output`,
	))
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks: %v", len(got), got)
	}
	fr := got["BenchmarkFuserReuse-8"]
	if fr.NsPerOp != 105.2 || !fr.HasAlloc || fr.Allocs != 0 {
		t.Fatalf("FuserReuse = %+v", fr)
	}
	// Custom metrics between ns/op and allocs/op must not confuse the
	// alloc extraction.
	row := got["BenchmarkTable1_Row1-8"]
	if row.Allocs != 2116 || !row.HasAlloc {
		t.Fatalf("Table1_Row1 = %+v", row)
	}
	if got["BenchmarkNoAllocsReported-8"].HasAlloc {
		t.Fatal("alloc field invented")
	}
}

func TestCompareGeomeanAndAllocGate(t *testing.T) {
	old := map[string]result{
		"A": {NsPerOp: 100, Allocs: 5, HasAlloc: true},
		"B": {NsPerOp: 200, Allocs: 0, HasAlloc: true},
		"C": {NsPerOp: 300}, // no alloc data
		"D": {NsPerOp: 400}, // absent from new: ignored
	}
	cur := map[string]result{
		"A": {NsPerOp: 50, Allocs: 5, HasAlloc: true},  // 2x faster
		"B": {NsPerOp: 400, Allocs: 3, HasAlloc: true}, // 2x slower, allocs grew
		"C": {NsPerOp: 300},
		"E": {NsPerOp: 1}, // new benchmark: ignored
	}
	d := compare(old, cur)
	if d.Compared != 3 {
		t.Fatalf("compared %d, want 3", d.Compared)
	}
	// Ratios 0.5, 2.0, 1.0 -> geomean 1.0.
	if math.Abs(d.Geomean-1.0) > 1e-12 {
		t.Fatalf("geomean = %v, want 1.0", d.Geomean)
	}
	if len(d.AllocGrowth) != 1 || !strings.Contains(d.AllocGrowth[0], "B:") {
		t.Fatalf("alloc growth = %v, want exactly B", d.AllocGrowth)
	}
}

// TestCompareNoisyAllocsSlack: a scheduling-dependent benchmark may
// drift within its stated slack, but growth past it still fails, and
// the slack never reaches benchmarks outside noisyAllocs (their
// non-drifting siblings included).
func TestCompareNoisyAllocsSlack(t *testing.T) {
	old := map[string]result{
		"BenchmarkCampaignBatched/batch=1-2": {NsPerOp: 1, Allocs: 41010, HasAlloc: true},
		"BenchmarkBoundedMerge/window=64":    {NsPerOp: 1, Allocs: 352058, HasAlloc: true},
		"BenchmarkBoundedMerge/window=0-2":   {NsPerOp: 1, Allocs: 352058, HasAlloc: true},
		"BenchmarkExact-2":                   {NsPerOp: 1, Allocs: 41010, HasAlloc: true},
	}
	cur := map[string]result{
		"BenchmarkCampaignBatched/batch=1-2": {NsPerOp: 1, Allocs: 41010 + noisyAllocSlack, HasAlloc: true},
		"BenchmarkBoundedMerge/window=64":    {NsPerOp: 1, Allocs: 352059, HasAlloc: true},
		"BenchmarkBoundedMerge/window=0-2":   {NsPerOp: 1, Allocs: 352059, HasAlloc: true},
		"BenchmarkExact-2":                   {NsPerOp: 1, Allocs: 41011, HasAlloc: true},
	}
	d := compare(old, cur)
	want := []string{"BenchmarkBoundedMerge/window=0-2:", "BenchmarkExact-2:"}
	if len(d.AllocGrowth) != len(want) {
		t.Fatalf("alloc growth = %v, want exactly %v", d.AllocGrowth, want)
	}
	for i, w := range want {
		if !strings.HasPrefix(d.AllocGrowth[i], w) {
			t.Fatalf("alloc growth = %v, want exactly %v", d.AllocGrowth, want)
		}
	}
	cur["BenchmarkCampaignBatched/batch=1-2"] = result{NsPerOp: 1, Allocs: 41010 + noisyAllocSlack + 1, HasAlloc: true}
	d = compare(old, cur)
	if len(d.AllocGrowth) != 3 || !strings.HasPrefix(d.AllocGrowth[1], "BenchmarkCampaignBatched/batch=1-2:") {
		t.Fatalf("alloc growth = %v, want the batched benchmark's growth past the slack flagged", d.AllocGrowth)
	}
}

func TestCompareFlagsUniformSlowdown(t *testing.T) {
	old := map[string]result{"A": {NsPerOp: 100}, "B": {NsPerOp: 100}}
	cur := map[string]result{"A": {NsPerOp: 130}, "B": {NsPerOp: 130}}
	d := compare(old, cur)
	if d.Geomean <= 1.20 {
		t.Fatalf("geomean = %v, want > 1.20 for a uniform 30%% slowdown", d.Geomean)
	}
}

func TestParseBenchRejectsNonJSON(t *testing.T) {
	_, err := parseBench(bufio.NewScanner(strings.NewReader("BenchmarkRaw 1 5 ns/op\n")))
	if err == nil {
		t.Fatal("raw (non-test2json) input accepted")
	}
}

// TestParseBenchReassemblesSplitLines: `go test -json` flushes a
// benchmark's name before running it and its measurements after, so
// one result line arrives as two (or more) output events. The parser
// must stitch them back together per (package, test).
func TestParseBenchReassemblesSplitLines(t *testing.T) {
	s := strings.Join([]string{
		`{"Action":"output","Package":"p","Test":"BenchmarkSplit","Output":"BenchmarkSplit   \t"}`,
		`{"Action":"output","Package":"q","Test":"BenchmarkOther","Output":"BenchmarkOther \t 5 \t 9.0 ns/op\n"}`,
		`{"Action":"output","Package":"p","Test":"BenchmarkSplit","Output":"       1\t  17455999 ns/op\t 5.878 E|S|\t 98664 B/op\t 598 allocs/op\n"}`,
	}, "\n")
	got := parse(t, s)
	sp, ok := got["BenchmarkSplit"]
	if !ok || sp.NsPerOp != 17455999 || !sp.HasAlloc || sp.Allocs != 598 {
		t.Fatalf("split line parsed as %+v (present=%v)", sp, ok)
	}
	if got["BenchmarkOther"].NsPerOp != 9.0 {
		t.Fatalf("interleaved package result lost: %+v", got["BenchmarkOther"])
	}
}

func TestCheckZeroAllocsPinsAndArms(t *testing.T) {
	cur := map[string]result{
		"BenchmarkRoundClean":            {NsPerOp: 180, Allocs: 0, HasAlloc: true},
		"BenchmarkAttackOptimalUncached": {NsPerOp: 2000, Allocs: 3, HasAlloc: true},
		"BenchmarkNoMem":                 {NsPerOp: 50},
	}
	if f := checkZeroAllocs(cur, regexp.MustCompile(`^BenchmarkRoundClean$`)); len(f) != 0 {
		t.Fatalf("clean zero-alloc benchmark flagged: %v", f)
	}
	f := checkZeroAllocs(cur, regexp.MustCompile(`BenchmarkRoundClean|BenchmarkAttackOptimalUncached|BenchmarkNoMem`))
	if len(f) != 2 {
		t.Fatalf("want 2 failures (nonzero allocs, missing -benchmem), got %v", f)
	}
	// A regexp matching nothing must fail: a renamed benchmark would
	// otherwise silently unarm the pin.
	if f := checkZeroAllocs(cur, regexp.MustCompile(`BenchmarkRenamedAway`)); len(f) != 1 {
		t.Fatalf("unmatched pin regexp did not fail: %v", f)
	}
}

func TestCPUCountFromSuffix(t *testing.T) {
	for _, tc := range []struct {
		names []string
		want  int
	}{
		{[]string{"BenchmarkA", "BenchmarkB/window=64"}, 1},
		{[]string{"BenchmarkA-2", "BenchmarkB/window=64-2"}, 2},
		{[]string{"BenchmarkA-8"}, 8},
		{[]string{"BenchmarkA-2", "BenchmarkB"}, 1},   // mixed: not one suffix
		{[]string{"BenchmarkA-2", "BenchmarkB-4"}, 1}, // -cpu 2,4 style
		{nil, 1},
	} {
		res := map[string]result{}
		for _, n := range tc.names {
			res[n] = result{NsPerOp: 1}
		}
		if got := cpuCount(res); got != tc.want {
			t.Errorf("cpuCount(%v) = %d, want %d", tc.names, got, tc.want)
		}
	}
}

// TestCPUSkipAcrossCPUCounts: a 1-CPU record and a 2-CPU one share no
// benchmark names, so comparing them used to gate nothing and pass in
// silence. The skip line must name both records and both counts, in the
// Makefile's "*** SKIPPED ***" style, and records taken at the same
// count must not be skipped.
func TestCPUSkipAcrossCPUCounts(t *testing.T) {
	one := parse(t, stream(`BenchmarkA \t 10 \t 100 ns/op \t 0 allocs/op`))
	two := parse(t, stream(`BenchmarkA-2 \t 10 \t 900 ns/op \t 0 allocs/op`))
	msg := cpuSkip("old.json", one, "new.json", two)
	for _, want := range []string{"*** SKIPPED ***", "old.json", "GOMAXPROCS 1", "new.json", "GOMAXPROCS 2", "DID NOT RUN"} {
		if !strings.Contains(msg, want) {
			t.Errorf("skip line %q lacks %q", msg, want)
		}
	}
	if msg := cpuSkip("a.json", two, "b.json", two); msg != "" {
		t.Fatalf("same CPU count skipped: %q", msg)
	}
}
