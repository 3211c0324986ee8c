package interval

// This file is the lane-parallel half of the batch machinery: where
// batch.go's generic kernel (fuseMerged) walks each candidate lane with
// the serial two-pointer merge, the kernels here rephrase Marzullo
// fusion as pure value selection so a lane costs one branch-free pass
// over the base endpoint arrays — and, on amd64 with AVX2, four lanes
// ride that pass at once.
//
// The reformulation: coverage of a point x by closed intervals is
// cov(x) = #{Lo <= x} - #{Hi < x}, so the fusion interval of
// base ∪ candidate with threshold need = n-f is
//
//	lo = min{x among all Lo endpoints : cov(x) >= need}
//	hi = max{x among all Hi endpoints : cov(x) >= need}
//
// and fusion exists iff some Lo qualifies. This selects the same VALUES
// as the scalar two-pointer scans (fuseSorted, fuseMerged): their
// per-pick coverage tests are lower bounds that become exact at the
// last duplicate copy of each distinct value, so a value passes the
// scan iff cov(value) >= need — and the scans stop at the extreme
// qualifying values. No arithmetic is performed on the endpoints, only
// comparisons and min/max, so the result is bit-identical; the
// differential and fuzz tests in internal/fusion pin that equivalence
// for every kernel.
//
// Splitting cov(x) at a threshold x into a base part and a candidate
// part is what makes the pass branch-free and lane-parallel:
//
//   - For a BASE endpoint threshold x = blos[i] (or bhis[i]), the base
//     part of cov(x) depends only on (base, need) and is precomputed by
//     ensureKernelTables into thrLo/thrHi: lane qualification reduces
//     to "candidate contribution d > thr[i]", where d sums four (k=2)
//     endpoint comparisons.
//   - For a CANDIDATE endpoint threshold, the base part
//     bcov(T) = #{blos <= T} - #{bhis < T} is accumulated in the same
//     pass over i, and the candidate's own contribution collapses to
//     constants by the within-lane sortedness (clo0 <= clo1,
//     chi0 <= chi1) — finalizeK2/finalizeK1 below.
//
// Kernel selection is a process-wide dispatch: "generic" (fuseMerged)
// and "avx2" (kernel_amd64.s, four lanes per pass, with the pure-Go
// lane kernels here scoring k=1 batches and the n mod 4 tail lanes).
// The default is chosen at startup by CPU feature detection — AVX2 on
// capable amd64, the generic kernel everywhere else — and can be forced
// with the SENSORFUSION_KERNEL environment variable or SetKernel (tests,
// and `make bench-kernels`, force each mode for apples-to-apples runs).

import (
	"fmt"
	"math"
	"os"
	"strings"
)

// kernelKind identifies one batch-kernel implementation.
type kernelKind uint8

const (
	kernelGeneric kernelKind = iota // fuseMerged: serial two-pointer merge per lane
	kernelAVX2                      // amd64 assembly, 4 lanes per pass (k == 2)
)

var kernelNameTab = [...]string{"generic", "avx2"}

// activeKernel is the process-wide batch-kernel selection. It is read
// on every FuseBatch/ScoreBatch call and written only by SetKernel (and
// the startup default); like the Sweeper itself it is not synchronized,
// so tests that force kernels must not run concurrent batch calls.
var activeKernel = defaultKernel()

func init() {
	if name := os.Getenv("SENSORFUSION_KERNEL"); name != "" {
		// An unknown or unavailable name keeps the detected default, so
		// e.g. SENSORFUSION_KERNEL=avx2 is harmless on arm64 and
		// `make bench-kernels` can sweep every mode everywhere.
		_ = SetKernel(name)
	}
}

// kernelAvailable reports whether kind can run in this build on this
// CPU. generic is portable; avx2 needs the amd64 assembly build (no
// purego tag) and runtime AVX2+OSXSAVE support.
func kernelAvailable(kind kernelKind) bool {
	switch kind {
	case kernelGeneric:
		return true
	case kernelAVX2:
		return haveAVX2
	}
	return false
}

// KernelNames returns the batch-kernel implementations available in
// this build on this CPU, in dispatch-preference order.
func KernelNames() []string {
	names := make([]string, 0, len(kernelNameTab))
	for k, n := range kernelNameTab {
		if kernelAvailable(kernelKind(k)) {
			names = append(names, n)
		}
	}
	return names
}

// KernelName returns the name of the currently selected batch kernel.
func KernelName() string { return kernelNameTab[activeKernel] }

// SetKernel selects the batch kernel by name ("generic", "avx2"),
// overriding the CPU-detected default. It fails when the name
// is unknown or the kernel is unavailable on this CPU/build; the
// selection is process-wide and not synchronized with running batch
// calls. The SENSORFUSION_KERNEL environment variable applies the same
// selection at startup.
func SetKernel(name string) error {
	for k, n := range kernelNameTab {
		if n != name {
			continue
		}
		if !kernelAvailable(kernelKind(k)) {
			return fmt.Errorf("interval: kernel %q not available on this CPU/build", name)
		}
		activeKernel = kernelKind(k)
		return nil
	}
	return fmt.Errorf("interval: unknown kernel %q (available: %s)", name, strings.Join(KernelNames(), ", "))
}

// ensureKernelTables (re)builds the per-(base, need) qualification
// thresholds the lane kernels compare against: for each base endpoint
// threshold x = s.los[i] (resp. s.his[i]), the EXACT base-only coverage
// cov_base(x) = #{blos <= x} - #{bhis < x} is computed by one
// two-pointer pass over the sorted arrays (duplicate runs share their
// exact count), and stored as
//
//	thrLo[i] = need - cov_base(s.los[i]) - 1
//	thrHi[i] = need - cov_base(s.his[i]) - 1
//
// so a lane's candidate contribution d qualifies the threshold iff
// d > thr[i] (a single signed compare — the form the AVX2 kernel's
// VPCMPGTQ wants). Cached like the sentinel arrays, invalidated by
// Preload/Add, and additionally keyed on need, which varies per call.
func (s *Sweeper) ensureKernelTables(need int) {
	if s.kclean && s.kneed == need {
		return
	}
	nb := len(s.los)
	if cap(s.thrLo) < nb {
		s.thrLo = make([]int64, nb)
		s.thrHi = make([]int64, nb)
	}
	s.thrLo = s.thrLo[:nb]
	s.thrHi = s.thrHi[:nb]
	j := 0 // #{bhis < x}
	for i := 0; i < nb; {
		x := s.los[i]
		r := i
		for r+1 < nb && s.los[r+1] == x {
			r++
		}
		for j < nb && s.his[j] < x {
			j++
		}
		thr := int64(need - ((r + 1) - j) - 1)
		for ; i <= r; i++ {
			s.thrLo[i] = thr
		}
	}
	j = 0 // #{blos <= x}
	for i := 0; i < nb; {
		x := s.his[i]
		r := i
		for r+1 < nb && s.his[r+1] == x {
			r++
		}
		for j < nb && s.los[j] <= x {
			j++
		}
		// #{bhis < x} is i, the first index of this duplicate run.
		thr := int64(need - (j - i) - 1)
		for ; i <= r; i++ {
			s.thrHi[i] = thr
		}
	}
	s.kclean = true
	s.kneed = need
}

// fuseBatchLanes scores every lane of b through the lane kernels.
// Exactly one of out (FuseBatch) and widths (ScoreBatch) is non-nil.
// Only k == 1 and k == 2 route here (the shapes of every hot path);
// the AVX2 kernel additionally requires k == 2 and handles lanes in
// groups of four, leaving k == 1 batches and the remainder lanes to the
// pure-Go lane kernels.
func (s *Sweeper) fuseBatchLanes(b *Batch, need int, out []Interval, widths []float64, ok []bool) {
	s.ensureKernelTables(need)
	i := 0
	if activeKernel == kernelAVX2 && b.k == 2 {
		i = s.fuseLanesAVX2(b, need, out, widths, ok)
	}
	stride := b.k + 2
	for ; i < b.n; i++ {
		seg := i * stride
		var iv Interval
		var o bool
		if b.k == 2 {
			iv, o = s.fuseLaneK2(b.los[seg+1], b.los[seg+2], b.his[seg+1], b.his[seg+2], need)
		} else {
			iv, o = s.fuseLaneK1(b.los[seg+1], b.his[seg+1], need)
		}
		if out != nil {
			out[i] = iv
		} else {
			widths[i] = iv.Hi - iv.Lo
		}
		ok[i] = o
	}
}

const (
	posInfBits = 0x7FF0000000000000 // math.Float64bits(+Inf)
	negInfBits = 0xFFF0000000000000 // math.Float64bits(-Inf)
)

// b2i64 returns 1 for true and 0 for false; the compiler lowers it to a
// flag materialization (SETcc), not a branch.
func b2i64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// condMin returns min(acc, x) when qual is 1 and acc when qual is 0,
// without a data-dependent branch: the mask substitutes +Inf (the min
// identity) for disqualified values.
func condMin(acc, x float64, qual int64) float64 {
	m := uint64(-qual)
	return min(acc, math.Float64frombits(math.Float64bits(x)&m|posInfBits&^m))
}

// condMax is condMin's mirror with -Inf as the max identity.
func condMax(acc, x float64, qual int64) float64 {
	m := uint64(-qual)
	return max(acc, math.Float64frombits(math.Float64bits(x)&m|negInfBits&^m))
}

// fuseLaneK2 fuses base ∪ {[clo0,chi0'], [clo1,chi1']} where
// (clo0, clo1) and (chi0, chi1) are the candidate's Lo and Hi endpoints
// each sorted ascending (the Batch layout — the pairing between Lo and
// Hi values is irrelevant to coverage). One pass over the base arrays
// evaluates every base-endpoint threshold branch-free (Part A) and
// accumulates the base coverage at the four candidate-endpoint
// thresholds (Part B); finalizeK2 closes the candidate thresholds.
func (s *Sweeper) fuseLaneK2(clo0, clo1, chi0, chi1 float64, need int) (Interval, bool) {
	blos := s.los
	bhis := s.his[:len(blos)]
	tlo := s.thrLo[:len(blos)]
	thi := s.thrHi[:len(blos)]
	lo, hi := math.Inf(1), math.Inf(-1)
	var bc0, bc1, bc2, bc3 int64 // bcov at clo0, clo1, chi0, chi1
	for i := 0; i < len(blos); i++ {
		xl, xh := blos[i], bhis[i]
		// Part A: candidate contribution to cov at the base thresholds.
		dl := b2i64(clo0 <= xl) + b2i64(clo1 <= xl) - b2i64(chi0 < xl) - b2i64(chi1 < xl)
		lo = condMin(lo, xl, b2i64(dl > tlo[i]))
		dh := b2i64(clo0 <= xh) + b2i64(clo1 <= xh) - b2i64(chi0 < xh) - b2i64(chi1 < xh)
		hi = condMax(hi, xh, b2i64(dh > thi[i]))
		// Part B: base contribution to cov at the candidate thresholds.
		bc0 += b2i64(xl <= clo0) - b2i64(xh < clo0)
		bc1 += b2i64(xl <= clo1) - b2i64(xh < clo1)
		bc2 += b2i64(xl <= chi0) - b2i64(xh < chi0)
		bc3 += b2i64(xl <= chi1) - b2i64(xh < chi1)
	}
	return finalizeK2(lo, hi, bc0, bc1, bc2, bc3, clo0, clo1, chi0, chi1, need)
}

// finalizeK2 merges the candidate-endpoint thresholds into the running
// (lo, hi) selection and reports the lane result. The candidate's own
// contribution at each of its endpoints reduces by sortedness
// (clo0 <= clo1, chi0 <= chi1): e.g. at T = clo1 both Lo endpoints
// count, and at T = chi0 no candidate Hi lies strictly below. A lane
// with no qualifying Lo endpoint has empty fusion (and then no Hi
// qualifies either); lo keeps +Inf in that case, which no finite
// endpoint can be, so it doubles as the ok flag.
func finalizeK2(lo, hi float64, bc0, bc1, bc2, bc3 int64, clo0, clo1, chi0, chi1 float64, need int) (Interval, bool) {
	n64 := int64(need)
	if bc0+1+b2i64(clo1 <= clo0)-b2i64(chi0 < clo0)-b2i64(chi1 < clo0) >= n64 && clo0 < lo {
		lo = clo0
	}
	if bc1+2-b2i64(chi0 < clo1)-b2i64(chi1 < clo1) >= n64 && clo1 < lo {
		lo = clo1
	}
	if bc2+b2i64(clo0 <= chi0)+b2i64(clo1 <= chi0) >= n64 && chi0 > hi {
		hi = chi0
	}
	if bc3+b2i64(clo0 <= chi1)+b2i64(clo1 <= chi1)-b2i64(chi0 < chi1) >= n64 && chi1 > hi {
		hi = chi1
	}
	if lo > math.MaxFloat64 { // lo == +Inf: nothing qualified
		return Interval{}, false
	}
	return Interval{Lo: lo, Hi: hi}, true
}

// fuseLaneK1 is fuseLaneK2 for a single candidate interval [clo0, chi0].
func (s *Sweeper) fuseLaneK1(clo0, chi0 float64, need int) (Interval, bool) {
	blos := s.los
	bhis := s.his[:len(blos)]
	tlo := s.thrLo[:len(blos)]
	thi := s.thrHi[:len(blos)]
	lo, hi := math.Inf(1), math.Inf(-1)
	var bc0, bc1 int64 // bcov at clo0, chi0
	for i := 0; i < len(blos); i++ {
		xl, xh := blos[i], bhis[i]
		dl := b2i64(clo0 <= xl) - b2i64(chi0 < xl)
		lo = condMin(lo, xl, b2i64(dl > tlo[i]))
		dh := b2i64(clo0 <= xh) - b2i64(chi0 < xh)
		hi = condMax(hi, xh, b2i64(dh > thi[i]))
		bc0 += b2i64(xl <= clo0) - b2i64(xh < clo0)
		bc1 += b2i64(xl <= chi0) - b2i64(xh < chi0)
	}
	n64 := int64(need)
	if bc0+1 >= n64 && clo0 < lo { // own interval covers its Lo; chi0 >= clo0 never counts below it
		lo = clo0
	}
	if bc1+b2i64(clo0 <= chi0) >= n64 && chi0 > hi {
		hi = chi0
	}
	if lo > math.MaxFloat64 {
		return Interval{}, false
	}
	return Interval{Lo: lo, Hi: hi}, true
}
