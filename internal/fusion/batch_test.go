package fusion

import (
	"math"
	"math/rand"
	"testing"

	"sensorfusion/internal/interval"
)

// The batch kernel (interval.Batch + Sweeper.FuseBatch/ScoreBatch) is a
// pure constant-factor rewrite of the scalar FuseWith path — the
// attacker's plan search scores whole candidate sets through it, so any
// divergence from Fuse/FuseNaive would silently change which placements
// win. These tests pin batch ≡ scalar ≡ reference bit-for-bit on random
// and fuzzed inputs, across re-preloads (sentinel invalidation), and pin
// the batch scoring loop at 0 allocs/op.

// forEachKernel runs fn once per batch kernel available in this
// build/CPU (interval.KernelNames), restoring the entry kernel after.
func forEachKernel(t *testing.T, fn func(name string)) {
	t.Helper()
	prev := interval.KernelName()
	defer func() {
		if err := interval.SetKernel(prev); err != nil {
			t.Fatalf("restoring kernel %q: %v", prev, err)
		}
	}()
	for _, name := range interval.KernelNames() {
		if err := interval.SetKernel(name); err != nil {
			t.Fatalf("SetKernel(%q): %v", name, err)
		}
		fn(name)
	}
}

// checkBatchAgainstReference scores every candidate in cands through
// FuseBatch and ScoreBatch — under every available dispatch kernel —
// and requires exact agreement with the scalar sweeper and the O(n^2)
// FuseNaive reference, success and failure alike.
func checkBatchAgainstReference(t *testing.T, sw *interval.Sweeper, base []interval.Interval, cands [][]interval.Interval, k, f int) {
	t.Helper()
	var b interval.Batch
	b.Reset(k)
	for _, c := range cands {
		b.Add(c)
	}
	scals := make([]interval.Interval, len(cands))
	scalOKs := make([]bool, len(cands))
	for i, c := range cands {
		all := append(append([]interval.Interval(nil), base...), c...)
		want, wantErr := FuseNaive(all, f)
		scal, scalOK := sw.FuseWith(c, f)
		if scalOK != (wantErr == nil) || (scalOK && !scal.Equal(want)) {
			t.Fatalf("scalar sweeper disagrees with reference: base=%v cand=%v f=%d: (%v, %v) vs (%v, %v)",
				base, c, f, scal, scalOK, want, wantErr)
		}
		scals[i], scalOKs[i] = scal, scalOK
	}
	out := make([]interval.Interval, b.Len())
	ok := make([]bool, b.Len())
	widths := make([]float64, b.Len())
	wok := make([]bool, b.Len())
	forEachKernel(t, func(kern string) {
		sw.FuseBatch(&b, f, out, ok)
		sw.ScoreBatch(&b, f, widths, wok)
		for i, c := range cands {
			scal, scalOK := scals[i], scalOKs[i]
			if ok[i] != scalOK {
				t.Fatalf("kernel=%s base=%v cand=%v f=%d: FuseBatch ok=%v, scalar ok=%v", kern, base, c, f, ok[i], scalOK)
			}
			if wok[i] != scalOK {
				t.Fatalf("kernel=%s base=%v cand=%v f=%d: ScoreBatch ok=%v, scalar ok=%v", kern, base, c, f, wok[i], scalOK)
			}
			if ok[i] {
				if !out[i].Equal(scal) {
					t.Fatalf("kernel=%s base=%v cand=%v f=%d: FuseBatch %v, scalar %v", kern, base, c, f, out[i], scal)
				}
				if widths[i] != scal.Width() {
					t.Fatalf("kernel=%s base=%v cand=%v f=%d: ScoreBatch width %v, scalar %v", kern, base, c, f, widths[i], scal.Width())
				}
			}
		}
	})
}

func TestFuseBatchMatchesScalarOnRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(20140325))
	var sw interval.Sweeper
	for trial := 0; trial < 1500; trial++ {
		nBase := rng.Intn(7)
		k := rng.Intn(4) // k == 0 candidates score the bare base
		base := randomIvs(nBase, rng)
		if nBase+k == 0 {
			continue
		}
		cands := make([][]interval.Interval, 1+rng.Intn(8))
		for i := range cands {
			cands[i] = randomIvs(k, rng)
		}
		f := rng.Intn(nBase + k)
		sw.Preload(base)
		checkBatchAgainstReference(t, &sw, base, cands, k, f)
	}
}

func TestFuseBatchAcrossBaseMutations(t *testing.T) {
	// Preload/Add must invalidate the kernel's sentinel arrays: fuse a
	// batch, mutate the base, fuse again — both must match the scalar
	// path against the then-current base.
	rng := rand.New(rand.NewSource(29))
	var sw interval.Sweeper
	base := randomIvs(3, rng)
	sw.Preload(base)
	for round := 0; round < 60; round++ {
		k := 1 + rng.Intn(2)
		cands := [][]interval.Interval{randomIvs(k, rng), randomIvs(k, rng)}
		f := rng.Intn(len(base) + k)
		checkBatchAgainstReference(t, &sw, base, cands, k, f)
		switch round % 3 {
		case 0:
			iv := randomIvs(1, rng)[0]
			sw.Add(iv)
			base = append(base, iv)
		case 1:
			base = randomIvs(1+rng.Intn(5), rng)
			sw.Preload(base)
		}
	}
}

func TestFuseBatchRejectsBadFaultBounds(t *testing.T) {
	var sw interval.Sweeper
	sw.Preload([]interval.Interval{interval.MustNew(0, 1), interval.MustNew(0.5, 2)})
	var b interval.Batch
	b.Reset(1)
	b.Add([]interval.Interval{interval.MustNew(0.2, 0.8)})
	out := make([]interval.Interval, 1)
	ok := []bool{true}
	sw.FuseBatch(&b, -1, out, ok)
	if ok[0] {
		t.Fatal("negative f accepted")
	}
	ok[0] = true
	sw.FuseBatch(&b, 3, out, ok)
	if ok[0] {
		t.Fatal("f == n accepted")
	}
	var empty interval.Sweeper
	var eb interval.Batch
	eb.Reset(0)
	eb.Add(nil)
	ok[0] = true
	empty.FuseBatch(&eb, 0, out, ok)
	if ok[0] {
		t.Fatal("empty input fused")
	}
}

// TestScoreBatchZeroAllocs pins the whole batched scoring pass — Reset,
// candidate Adds, ScoreBatch — at 0 allocs/op once buffers are warm: the
// property the attacker's uncached plan search builds on.
func TestScoreBatchZeroAllocs(t *testing.T) {
	var sw interval.Sweeper
	sw.Preload([]interval.Interval{
		interval.MustCentered(0.1, 1), interval.MustCentered(-0.2, 2),
		interval.MustCentered(0.3, 3), interval.MustCentered(0, 0.5),
		interval.MustCentered(-0.1, 1.5), interval.MustCentered(0.2, 2.5),
	})
	cands := [][]interval.Interval{
		{interval.MustCentered(0.4, 1), interval.MustCentered(-0.3, 1)},
		{interval.MustCentered(0.1, 2), interval.MustCentered(0.2, 0.5)},
		{interval.MustCentered(-0.4, 3), interval.MustCentered(0, 1)},
	}
	// The k=1 leg scores the case-study shape: one placed interval
	// against a four-interval world, through the per-call summary.
	var sw1 interval.Sweeper
	sw1.Preload([]interval.Interval{
		interval.MustCentered(0.1, 1), interval.MustCentered(-0.2, 2),
		interval.MustCentered(0.3, 3), interval.MustCentered(0, 1.5),
	})
	cands1 := [][]interval.Interval{
		{interval.MustCentered(0.4, 1)}, {interval.MustCentered(-0.3, 0.5)},
		{interval.MustCentered(0.1, 2)}, {interval.MustCentered(-0.6, 1.5)},
	}
	var b interval.Batch
	run := func(sw *interval.Sweeper, cands [][]interval.Interval, k, f int) func() {
		widths := make([]float64, len(cands))
		ok := make([]bool, len(cands))
		return func() {
			b.Reset(k)
			for _, c := range cands {
				b.Add(c)
			}
			sw.ScoreBatch(&b, f, widths, ok)
			for i := range ok {
				if !ok[i] {
					t.Fatal("fusion unexpectedly empty")
				}
			}
		}
	}
	legs := []struct {
		name string
		run  func()
	}{
		{"k=2", run(&sw, cands, 2, 2)},
		{"k=1", run(&sw1, cands1, 1, 1)},
	}
	forEachKernel(t, func(kern string) {
		for _, leg := range legs {
			leg.run() // warm the batch, sentinel, and threshold-table buffers
			if allocs := testing.AllocsPerRun(200, leg.run); allocs != 0 {
				t.Fatalf("kernel=%s %s: batched scoring pass allocates %v per run, want 0", kern, leg.name, allocs)
			}
		}
	})
}

// TestFuseBatchKernelsForcedDispatch pins the dispatch seams the random
// trials reach only by luck: adversarial batch shapes checked under
// every kernel (equal endpoints, zero-width lanes, duplicate-heavy
// bases, empty base, k=0 all-sentinel lanes, batches straddling the
// four-lane assembly groups, the k=1 summary's coverage edges and its
// wide-base fallback, one Sweeper alternating k=1/k=2 batches), plus
// the SetKernel API contract.
func TestFuseBatchKernelsForcedDispatch(t *testing.T) {
	if err := interval.SetKernel("no-such-kernel"); err == nil {
		t.Fatal("SetKernel accepted an unknown kernel name")
	}
	// generic everywhere, plus avx2 where the CPU and build support it.
	names := interval.KernelNames()
	if len(names) == 0 || names[0] != "generic" || len(names) > 2 || (len(names) == 2 && names[1] != "avx2") {
		t.Fatalf("kernel list %v, want [generic] or [generic avx2]", names)
	}

	var sw interval.Sweeper
	u := interval.MustNew(1, 1) // zero-width
	e := interval.MustNew(0, 2)
	dupBase := []interval.Interval{e, e, e, u, u}
	spread := []interval.Interval{
		interval.MustNew(-3, -1), interval.MustNew(-1.5, 0.5),
		interval.MustNew(0, 2), interval.MustNew(1.5, 4),
	}
	// k1s packs (lo, hi) pairs into single-interval candidates.
	k1s := func(ends ...float64) [][]interval.Interval {
		cands := make([][]interval.Interval, len(ends)/2)
		for i := range cands {
			cands[i] = []interval.Interval{interval.MustNew(ends[2*i], ends[2*i+1])}
		}
		return cands
	}
	// wide is 12 disjoint intervals: more base intervals (and, at f=11,
	// more coverage-1 endpoints) than the k=1 summary holds, so the k=1
	// batch takes the generic fallback.
	wide := make([]interval.Interval, 12)
	for i := range wide {
		wide[i] = interval.MustNew(float64(i)*1.5, float64(i)*1.5+1)
	}
	// signedZero holds base Lo and Hi copies at both -0 and +0, listed so
	// the sorted endpoints meet +0 first among the Los and -0 first among
	// the His. Every base interval covers 0, so at f=0 the zeros sit at
	// coverage need-1 and at f=1 at coverage need; every fusion is the
	// point 0. The cases below check the values against the references;
	// k1-signed-zero-bits pins the sign of zero.
	negZero := math.Copysign(0, -1)
	signedZero := []interval.Interval{
		interval.MustNew(0, 2), interval.MustNew(negZero, 1),
		interval.MustNew(-1, negZero), interval.MustNew(-2, 0),
	}
	repeat := func(c []interval.Interval, n int) [][]interval.Interval {
		cands := make([][]interval.Interval, n)
		for i := range cands {
			cands[i] = c
		}
		return cands
	}
	cases := []struct {
		name  string
		base  []interval.Interval
		cands [][]interval.Interval
		k, f  int
	}{
		{"equal-endpoints", dupBase, repeat([]interval.Interval{e, e}, 9), 2, 2},
		{"zero-width-lanes", spread, repeat([]interval.Interval{u, u}, 5), 2, 1},
		{"empty-base-k2", nil, [][]interval.Interval{
			{e, u}, {u, u}, {e, e}, {interval.MustNew(-1, 0), interval.MustNew(0, 1)},
		}, 2, 1},
		{"k1-lanes", spread, [][]interval.Interval{{u}, {e}, {interval.MustNew(-2, 0)}}, 1, 2},
		{"all-sentinel-k0", spread, [][]interval.Interval{{}, {}, {}}, 0, 1},
		{"asm-group-straddle", dupBase, repeat([]interval.Interval{e, u}, 11), 2, 3},
		// k=1 summary kernel edges: the candidate adds at most 1 to the
		// coverage, so the base points at coverage need-1 and the
		// segments at >= need-1 decide every lane.
		{"k1-every-point-qualifies", spread, k1s(-5, -4, -2, 1, 1, 1, 3, 6), 1, 4}, // need-1 = 0
		{"k1-need-above-coverage", spread, k1s(-2, 3, 0, 2, 1, 1), 1, 0},           // need = nb+1 > max coverage+1
		{"k1-endpoints-on-base", spread, k1s(-3, -1, -1.5, 0.5, 0, 2, 1.5, 4, -1, 0, 0.5, 1.5, 2, 2), 1, 2},
		{"k1-dup-boundary", []interval.Interval{
			interval.MustNew(1, 2), interval.MustNew(1, 2), interval.MustNew(1.5, 3),
			interval.MustNew(3, 3.5), interval.MustNew(3, 3.5),
		}, k1s(1, 1.5, 1.5, 2, 2, 3, 1, 1, 3, 3.5, 0, 4, 2.5, 3), 1, 2},
		{"k1-zero-width", spread, k1s(0.25, 0.25, 0, 0, 1.5, 1.5, -1, -1, 5, 5), 1, 2},
		{"k1-disjoint-segments", []interval.Interval{
			interval.MustNew(0, 1), interval.MustNew(0.5, 1.5),
			interval.MustNew(3, 4), interval.MustNew(3.5, 4.5),
			interval.MustNew(7, 8), interval.MustNew(7.5, 8.5),
		}, k1s(0.75, 3.75, 1, 3.5, 1.25, 7.25, 0.5, 0.5, 4, 7.5, 1.5, 3, 8, 9, -1, 0.5), 1, 5},
		{"k1-empty-base", nil, k1s(0, 1, -2, -2, 3, 7), 1, 0},
		{"k1-signed-zero-need-minus-1", signedZero, k1s(-0.5, 0.5, 0, 0.5, -0.5, negZero, negZero, 0, -3, 3), 1, 0},
		{"k1-signed-zero-need", signedZero, k1s(5, 6, -0.5, 0.5, 0, 0.5, -0.5, negZero, negZero, 0), 1, 1},
		{"k1-base-wider-than-summary", wide, k1s(0.5, 2, 2.5, 6, -3, 0.5, 9, 12, 20, 21), 1, 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw.Preload(tc.base)
			checkBatchAgainstReference(t, &sw, tc.base, tc.cands, tc.k, tc.f)
		})
	}

	// Equal cannot tell -0 from +0, and the scalar sweeper, FuseNaive and
	// the generic kernel do not agree on the sign of a zero endpoint (the
	// two-pointer scans return whichever tied copy they meet first). The
	// lane kernels select like condMin/condMax: among tied copies the Lo
	// is the smallest (-0) and the Hi the largest (+0). Pin those bits
	// for the k=1 summary, which must fold tied copies to keep them: a
	// summary that took the first sorted copy would return [+0, -0] here.
	t.Run("k1-signed-zero-bits", func(t *testing.T) {
		sw.Preload(signedZero)
		cands := k1s(-0.5, 0.5, 0, 0.5, -0.5, negZero, negZero, 0, -3, 3)
		for _, f := range []int{0, 1} {
			var b interval.Batch
			b.Reset(1)
			for _, c := range cands {
				b.Add(c)
			}
			out := make([]interval.Interval, b.Len())
			ok := make([]bool, b.Len())
			forEachKernel(t, func(kern string) {
				if kern == "generic" {
					return
				}
				sw.FuseBatch(&b, f, out, ok)
				for i, c := range cands {
					if !ok[i] || !math.Signbit(out[i].Lo) || out[i].Lo != 0 || math.Signbit(out[i].Hi) || out[i].Hi != 0 {
						t.Fatalf("kernel=%s cand=%v f=%d: FuseBatch (%v, %v) signbits (%v, %v), want [-0, +0]",
							kern, c, f, out[i], ok[i], math.Signbit(out[i].Lo), math.Signbit(out[i].Hi))
					}
				}
			})
		}
	})

	// One Sweeper across alternating k=1/k=2 batches and fault bounds,
	// with the base mutated by Add and Preload between calls: the k=2
	// threshold tables are cached per (base, need) while the k=1 summary
	// is rebuilt per call, and neither may leak into the other.
	t.Run("k1-k2-alternation", func(t *testing.T) {
		base := append([]interval.Interval(nil), spread...)
		sw.Preload(base)
		steps := []struct {
			k, f int
			mut  func()
		}{
			{1, 2, nil},
			{2, 2, nil},
			{1, 1, func() { base = append(base, e); sw.Add(e) }},
			{2, 3, nil},
			{1, 3, func() { base = append(base, u); sw.Add(u) }},
			{1, 0, nil},
			{2, 1, func() { base = append([]interval.Interval(nil), dupBase...); sw.Preload(base) }},
			{1, 2, nil},
			{2, 2, func() { base = nil; sw.Preload(nil) }},
			{1, 0, nil},
			{2, 1, func() { base = append([]interval.Interval(nil), wide...); sw.Preload(base) }},
			{1, 11, nil},
		}
		k1 := k1s(-2, 0.5, 0, 2, 1, 1, 1.5, 4, 0.5, 3)
		k2 := [][]interval.Interval{{e, u}, {interval.MustNew(-1, 0.5), interval.MustNew(1.5, 3)}, {u, u}}
		for _, st := range steps {
			if st.mut != nil {
				st.mut()
			}
			cands := k1
			if st.k == 2 {
				cands = k2
			}
			checkBatchAgainstReference(t, &sw, base, cands, st.k, st.f)
		}
	})
}

// FuzzFuseBatch drives batch ≡ scalar ≡ FuseNaive with fuzzed interval
// sets: the byte string decodes into (base, candidate set, f), with the
// candidate count taken from the data so batches of 1..6 are covered.
func FuzzFuseBatch(f *testing.F) {
	f.Add([]byte{3, 2, 1, 2, 10, 20, 5, 15, 12, 30, 0, 8, 40, 50})
	f.Add([]byte{1, 1, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 2, 1, 3, 7, 9, 250, 4, 17, 2, 90, 6})
	// Adversarial lane shapes for the dispatch kernels (committed in
	// testdata/fuzz/FuzzFuseBatch too): every endpoint equal, all
	// zero-width intervals, a k=1 pack, and a constant candidate-only
	// lane over an empty base.
	f.Add([]byte{4, 1, 1, 3, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4})
	f.Add([]byte{3, 1, 2, 1, 250, 0, 10, 16, 4, 0, 20, 32, 8, 0, 16, 48, 12, 0})
	f.Add([]byte{5, 0, 3, 4, 240, 7, 16, 15, 232, 0, 8, 4, 252, 16, 0, 12, 248, 8, 4, 0, 12, 20, 244, 6})
	f.Add([]byte{0, 1, 0, 0, 100, 4, 100, 4})
	// k=1 lanes against bases whose need-1 coverage splits into two and
	// three disjoint segments, and duplicate base endpoints at the
	// need-1 boundary (seed-k1-two-segments, seed-k1-three-segments,
	// seed-k1-dup-boundary).
	f.Add([]byte{4, 0, 2, 4, 0, 4, 2, 4, 12, 4, 14, 4, 3, 12, 4, 10, 2, 0, 16, 0, 6, 6})
	f.Add([]byte{3, 3, 2, 3, 0, 2, 4, 2, 8, 2, 1, 8, 2, 2, 6, 2, 252, 4})
	f.Add([]byte{4, 0, 1, 2, 4, 4, 4, 4, 6, 6, 12, 2, 6, 2, 4, 2, 8, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nBase := int(data[0]) % 7
		k := 1 + int(data[1])%3
		fb := int(data[2]) % (nBase + k)
		nCands := 1 + int(data[3])%6
		decode := func(j int) interval.Interval {
			lo := float64(int8(data[(4+2*j)%len(data)])) / 4
			w := float64(data[(5+2*j)%len(data)]%16) / 4
			return interval.Interval{Lo: lo, Hi: lo + w}
		}
		base := make([]interval.Interval, nBase)
		for j := range base {
			base[j] = decode(j)
		}
		cands := make([][]interval.Interval, nCands)
		for i := range cands {
			cands[i] = make([]interval.Interval, k)
			for j := range cands[i] {
				cands[i][j] = decode(nBase + i*k + j)
			}
		}
		var sw interval.Sweeper
		sw.Preload(base)
		checkBatchAgainstReference(t, &sw, base, cands, k, fb)
	})
}
