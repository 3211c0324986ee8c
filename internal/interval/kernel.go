package interval

// This file is the lane half of the batch machinery: where batch.go's
// generic kernel (fuseMerged) walks each candidate lane with the serial
// two-pointer merge, the kernels here rephrase Marzullo fusion as pure
// value selection against a per-(base, need) precomputation, so a k=2
// lane costs one branch-free pass over the base endpoint arrays (on
// amd64 with AVX2, four lanes ride that pass at once) and a k=1 lane
// only a few compares.
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
// for every kernel. The one exception is the sign of a zero endpoint
// when a base holds both -0 and +0 copies: the lane kernels take the
// smallest tied copy for lo (-0) and the largest for hi (+0), while
// the scans keep whichever copy they meet first. The values are equal;
// the k1-signed-zero-bits test pins the lane kernels' choice.
//
// Splitting cov(x) at a threshold x into a base part and a candidate
// part is what takes the base walk out of the per-lane work:
//
//   - k=2, for a BASE endpoint threshold x = blos[i] (or bhis[i]): the
//     base part of cov(x) depends only on (base, need) and is
//     precomputed by ensureKernelTables into thrLo/thrHi, so lane
//     qualification reduces to "candidate contribution d > thr[i]",
//     where d sums four endpoint comparisons.
//   - k=2, for a CANDIDATE endpoint threshold: the base part
//     bcov(T) = #{blos <= T} - #{bhis < T} is accumulated in the same
//     pass over i, and the candidate's own contribution collapses to
//     constants by the within-lane sortedness (clo0 <= clo1,
//     chi0 <= chi1) — finalizeK2 below.
//   - k=1: a single candidate [a, b] adds at most 1 to any coverage, so
//     only base points at coverage need-1 depend on the lane at all. A
//     k1Summary built once per batch call holds the outright winners,
//     the need-1 endpoints and the need-1 coverage segments; each lane
//     is then a few compares against it (k1Summary.fuse).
//
// Kernel selection is a process-wide dispatch: "generic" (fuseMerged
// for every shape) and "avx2" (kernel_amd64.s, four k=2 lanes per pass,
// with the pure-Go fuseLaneK2 scoring the n mod 4 tail lanes and the
// k=1 summary scoring k=1 batches). The default is chosen at startup by
// CPU feature detection — AVX2 on capable amd64, the generic kernel
// everywhere else — and can be forced with the SENSORFUSION_KERNEL
// environment variable or SetKernel (tests, and `make bench-kernels`,
// force each mode for apples-to-apples runs).

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
// thresholds the k=2 lane kernels compare against: for each base endpoint
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

// fuseBatchLanes scores every lane of b through the lane kernels and
// reports whether it did. Exactly one of out (FuseBatch) and widths
// (ScoreBatch) is non-nil. Only k == 1 and k == 2 route here (the shapes
// of every hot path): k == 1 batches go through the per-call summary
// (fuseLanesK1), which declines bases wider than k1Cap; k == 2 batches
// run the AVX2 kernel in groups of four lanes, leaving the remainder
// lanes to the pure-Go fuseLaneK2. A false return leaves the batch to
// the generic merge kernel.
func (s *Sweeper) fuseBatchLanes(b *Batch, need int, out []Interval, widths []float64, ok []bool) bool {
	if b.k == 1 {
		return s.fuseLanesK1(b, need, out, widths, ok)
	}
	if b.k != 2 {
		return false
	}
	s.ensureKernelTables(need)
	i := 0
	if activeKernel == kernelAVX2 {
		i = s.fuseLanesAVX2(b, need, out, widths, ok)
	}
	for ; i < b.n; i++ {
		seg := i * 4 // stride is k+2 = 4
		iv, o := s.fuseLaneK2(b.los[seg+1], b.los[seg+2], b.his[seg+1], b.his[seg+2], need)
		if out != nil {
			out[i] = iv
		} else {
			widths[i] = iv.Hi - iv.Lo
		}
		ok[i] = o
	}
	return true
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

// k1Cap bounds the base intervals a k1Summary holds: it lives in a
// fixed-size array on the stack of each k == 1 batch call, so it is
// sized to the hot bases (every measured workload's worlds hold 2-4
// intervals) and a wider base falls back to the generic merge kernel.
const k1Cap = 8

// k1Summary is the selection a single candidate interval [a, b] needs
// from one (base, need) pair, built once per k == 1 batch call. With
// bcov(x) the base coverage, the fusion of base ∪ {[a, b]} is
//
//	lo = min(l0, the first klo in [a, b], a if a lies in a segment)
//	hi = max(h0, the last khi in [a, b], b if b lies in a segment)
//
// because the candidate adds at most 1 to the coverage at any point:
// a base endpoint qualifies outright when bcov >= need, and through the
// candidate exactly when bcov == need-1 and the candidate covers it;
// the candidate's own endpoints qualify when bcov >= need-1 there. It
// is the same selection fuseLaneK2 makes, with the base part
// precomputed, so the result is bit-identical to fuseLaneK2's (and
// equal in value to the scans).
type k1Summary struct {
	l0, h0       float64 // min base Lo / max base Hi with bcov >= need (±Inf if none)
	nlo, nhi, ns int
	// klo/khi are the base Lo/Hi values with bcov == need-1, ascending,
	// one entry per distinct value (min/max over a ±0 pair, as the
	// selection over the individual copies would give).
	klo, khi [k1Cap]float64
	// segLo/segHi are the closed, disjoint, ascending segments where
	// bcov >= need-1: a single (-Inf, +Inf) when need-1 <= 0.
	segLo, segHi [k1Cap]float64
}

// fuseLanesK1 scores a k == 1 batch through a k1Summary of the base. It
// declines (false) a base wider than k1Cap.
func (s *Sweeper) fuseLanesK1(b *Batch, need int, out []Interval, widths []float64, ok []bool) bool {
	if len(s.los) > k1Cap {
		return false
	}
	var sum k1Summary
	s.summarizeK1(need, &sum)
	for i := 0; i < b.n; i++ {
		seg := i * 3 // stride is k+2 = 3
		iv, o := sum.fuse(b.los[seg+1], b.his[seg+1])
		if out != nil {
			out[i] = iv
		} else {
			widths[i] = iv.Hi - iv.Lo
		}
		ok[i] = o
	}
	return true
}

// summarizeK1 fills sum from one merged ascending sweep over the base
// endpoints. At each distinct value v the Lo copies count first (closed
// intervals), so the running count equals bcov(v) = #{Lo <= v} -
// #{Hi < v} when v's Lo copies have been added and before its Hi
// copies are removed; between events it is the coverage of the open gap.
func (s *Sweeper) summarizeK1(need int, sum *k1Summary) {
	los := s.los
	his := s.his[:len(los)]
	nb := len(los)
	m := need - 1
	sum.l0, sum.h0 = math.Inf(1), math.Inf(-1)
	open, start := m <= 0, math.Inf(-1)
	c, i := 0, 0
	// Every Lo precedes the largest Hi, so the Hi side ends the sweep.
	for j := 0; j < nb; {
		if i < nb && los[i] <= his[j] {
			v := los[i]
			x, r := v, i
			for ; r < nb && los[r] == v; r++ {
				x = min(x, los[r])
			}
			c += r - i
			i = r
			if c >= need {
				sum.l0 = min(sum.l0, x)
			} else if c == m {
				sum.klo[sum.nlo] = x
				sum.nlo++
			}
			if !open && c >= m {
				open, start = true, v
			}
			continue
		}
		v := his[j]
		x, r := v, j
		for ; r < nb && his[r] == v; r++ {
			x = max(x, his[r])
		}
		if c >= need {
			sum.h0 = max(sum.h0, x)
		} else if c == m {
			sum.khi[sum.nhi] = x
			sum.nhi++
		}
		c -= r - j
		j = r
		if open && c < m {
			sum.segLo[sum.ns], sum.segHi[sum.ns] = start, v
			sum.ns++
			open = false
		}
	}
	if open {
		sum.segLo[sum.ns], sum.segHi[sum.ns] = start, math.Inf(1)
		sum.ns++
	}
}

// fuse returns the fusion of the summarized base with the candidate
// [a, b]. A lane with no qualifying Lo keeps lo = +Inf, which no finite
// endpoint can be, so it doubles as the ok flag.
func (sum *k1Summary) fuse(a, b float64) (Interval, bool) {
	lo, hi := sum.l0, sum.h0
	for _, x := range sum.klo[:sum.nlo] {
		if x >= a {
			if x <= b {
				lo = min(lo, x)
			}
			break
		}
	}
	for q := sum.nhi - 1; q >= 0; q-- {
		if x := sum.khi[q]; x <= b {
			if x >= a {
				hi = max(hi, x)
			}
			break
		}
	}
	q := 0
	for ; q < sum.ns; q++ {
		if a <= sum.segHi[q] {
			if a >= sum.segLo[q] && a < lo {
				lo = a
			}
			break
		}
	}
	for ; q < sum.ns; q++ { // b >= a: its segment is not below a's
		if b <= sum.segHi[q] {
			if b >= sum.segLo[q] && b > hi {
				hi = b
			}
			break
		}
	}
	if lo > math.MaxFloat64 {
		return Interval{}, false
	}
	return Interval{Lo: lo, Hi: hi}, true
}
