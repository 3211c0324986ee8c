package results

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sensorfusion/internal/chaos"
)

func sampleRecord(i int) Record {
	return Record{
		Kind:   "campaign",
		Index:  i,
		Config: fmt.Sprintf("n=3, fa=1, L=[5 %d 17]", 5+i),
		Digest: "0123456789abcdef",
		Seed:   42,
		Metrics: []Metric{
			{"asc", 10.77}, {"desc", 13.58}, {"no_attack", 9.5 + float64(i)},
			{"combos", 1296}, {"detections", 0},
		},
	}
}

func TestJSONLRoundTripByteIdentical(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	for i := 0; i < 5; i++ {
		if err := s.Write(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	first := buf.String()

	recs, err := ReadJSONL(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("parsed %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		if !reflect.DeepEqual(rec, sampleRecord(i)) {
			t.Fatalf("record %d round-trip mismatch:\ngot  %+v\nwant %+v", i, rec, sampleRecord(i))
		}
	}

	var buf2 bytes.Buffer
	s2 := NewJSONL(&buf2)
	for _, rec := range recs {
		if err := s2.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if buf2.String() != first {
		t.Fatalf("serialize->parse->serialize not byte-identical:\n%q\nvs\n%q", buf2.String(), first)
	}
}

func TestJSONLEscapesAndFloats(t *testing.T) {
	rec := Record{
		Kind:   "t",
		Config: `quote " backslash \ newline` + "\n" + `tab` + "\t" + `ctrl` + "\x01",
		Metrics: []Metric{
			{"third", 1.0 / 3.0}, {"neg", -0.25}, {"big", 1e21}, {"tiny", 5e-324},
		},
	}
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	if err := s.Write(rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], rec) {
		t.Fatalf("escape round trip:\ngot  %+v\nwant %+v", got[0], rec)
	}
}

func TestJSONLRejectsNonFinite(t *testing.T) {
	s := NewJSONL(io.Discard)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.Write(Record{Metrics: []Metric{{"x", bad}}}); err == nil {
			t.Fatalf("value %v must be rejected", bad)
		}
	}
}

func TestParseRecordRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		`{"kind":"t","bogus":1,"metrics":{}}`,
		`{"kind":7}`,
		`{"metrics":{"x":"notanumber"}}`,
		`[1,2]`,
		`{"index":1.5}`,
		`{}`, // missing every required field
		`{"kind":"t","index":0,"config":"c","digest":"","seed":0}`,                                                                                   // missing metrics
		`{"kind":"t","kind":"t","index":0,"config":"c","digest":"","seed":0,"metrics":{}}`,                                                           // duplicate field
		`{"kind":"t","index":0,"config":"c","digest":"","seed":0,"metrics":{}}{"kind":"u","index":1,"config":"c","digest":"","seed":0,"metrics":{}}`, // fused lines
	} {
		if _, err := ParseRecord([]byte(bad)); err == nil {
			t.Errorf("ParseRecord(%s) accepted malformed input", bad)
		}
	}
}

func TestCSVHeaderAndQuoting(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSV(&buf)
	rec := sampleRecord(0)
	rec.Config = `has "quote", comma`
	if err := s.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(sampleRecord(1)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), buf.String())
	}
	if lines[0] != "kind,index,config,digest,seed,asc,desc,no_attack,combos,detections" {
		t.Fatalf("header: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"has ""quote"", comma"`) {
		t.Fatalf("quoting: %s", lines[1])
	}
	// Mismatched metric keys must fail loudly, not corrupt columns.
	bad := sampleRecord(2)
	bad.Metrics[0].Key = "renamed"
	if err := s.Write(bad); err == nil {
		t.Fatal("metric key mismatch accepted")
	}
}

func TestTableSinkRendersAligned(t *testing.T) {
	var buf bytes.Buffer
	s := NewTable(&buf)
	for i := 0; i < 3; i++ {
		if err := s.Write(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() != 0 {
		t.Fatal("table sink must buffer until Flush")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "config") || !strings.Contains(out, "asc") {
		t.Fatalf("missing header:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 5 { // header + rule + 3 rows
		t.Fatalf("want 5 lines, got %d:\n%s", got, out)
	}
}

func TestReorderRestoresAnyPermutation(t *testing.T) {
	const n = 40
	want := &Collector{}
	for i := 0; i < n; i++ {
		if err := want.Write(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(n)
		got := &Collector{}
		r := NewReorderWindow(chaos.OS, got, 0, 0, "")
		for _, i := range order {
			if err := r.Write(sampleRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Records, want.Records) {
			t.Fatalf("trial %d: order not restored from permutation %v", trial, order)
		}
	}
}

func TestReorderConcurrentWriters(t *testing.T) {
	const n = 200
	got := &Collector{}
	r := NewReorderWindow(chaos.OS, got, 0, 0, "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				if err := r.Write(sampleRecord(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range got.Records {
		if rec.Index != i {
			t.Fatalf("position %d holds index %d", i, rec.Index)
		}
	}
}

func TestReorderRejectsDuplicatesAndGaps(t *testing.T) {
	r := NewReorderWindow(chaos.OS, &Collector{}, 0, 0, "")
	if err := r.Write(sampleRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(sampleRecord(0)); err == nil {
		t.Fatal("released duplicate accepted")
	}
	if err := r.Write(sampleRecord(2)); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(sampleRecord(2)); err == nil {
		t.Fatal("pending duplicate accepted")
	}
	if err := r.Flush(); err == nil || !strings.Contains(err.Error(), "missing record for index 1") {
		t.Fatalf("gap not reported: %v", err)
	}
}

func TestDigestStableAndDiscriminating(t *testing.T) {
	a := Digest("table1|L=[5 11 17]|fa=1")
	if a != Digest("table1|L=[5 11 17]|fa=1") {
		t.Fatal("digest not deterministic")
	}
	if len(a) != 16 {
		t.Fatalf("digest length %d, want 16", len(a))
	}
	if a == Digest("table1|L=[5 11 17]|fa=2") {
		t.Fatal("distinct inputs collided")
	}
}

// TestJSONLWriteZeroAllocs pins the streaming-sink hot path: after the
// first write warms the buffer, a record write performs zero heap
// allocations. BenchmarkResultsSink reports the same number under
// -benchmem for the CI bench smoke.
func TestJSONLWriteZeroAllocs(t *testing.T) {
	s := NewJSONL(io.Discard)
	rec := sampleRecord(7)
	if err := s.Write(rec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Write(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("JSONL.Write allocates %v times per record, want 0", allocs)
	}
}

// BenchmarkResultsSink times the streaming JSONL sink on the campaign
// hot path; run with -benchmem to see the 0 allocs/op contract that
// TestJSONLWriteZeroAllocs enforces.
func BenchmarkResultsSink(b *testing.B) {
	s := NewJSONL(io.Discard)
	rec := sampleRecord(7)
	if err := s.Write(rec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecordEqual: Equal discriminates every field, including metric
// order, and matches byte equality of the serialized forms.
func TestRecordEqual(t *testing.T) {
	base := sampleRecord(3)
	if !base.Equal(sampleRecord(3)) {
		t.Fatal("identical records not Equal")
	}
	variants := []Record{}
	v := sampleRecord(3)
	v.Kind = "table1"
	variants = append(variants, v)
	v = sampleRecord(3)
	v.Index = 4
	variants = append(variants, v)
	v = sampleRecord(3)
	v.Config += "x"
	variants = append(variants, v)
	v = sampleRecord(3)
	v.Seed++
	variants = append(variants, v)
	v = sampleRecord(3)
	v.Metrics[0].Val++
	variants = append(variants, v)
	v = sampleRecord(3)
	v.Metrics[0], v.Metrics[1] = v.Metrics[1], v.Metrics[0]
	variants = append(variants, v)
	v = sampleRecord(3)
	v.Metrics = v.Metrics[:len(v.Metrics)-1]
	variants = append(variants, v)
	for k, variant := range variants {
		if base.Equal(variant) {
			t.Fatalf("variant %d compared Equal to base", k)
		}
		var a, b bytes.Buffer
		if err := NewJSONL(&a).Write(base); err != nil {
			t.Fatal(err)
		}
		if err := NewJSONL(&b).Write(variant); err != nil {
			t.Fatal(err)
		}
		if a.String() == b.String() {
			t.Fatalf("variant %d serializes identically to base yet differs", k)
		}
	}
}
