//go:build amd64 && !purego

package interval

// amd64 side of the kernel dispatch: CPUID/XGETBV feature detection
// (hand-rolled — this module deliberately has no dependencies, so no
// golang.org/x/sys/cpu) and the Go wrapper around the AVX2 four-lane
// kernel in kernel_amd64.s.

// cpuidex executes CPUID with the given leaf and subleaf
// (kernel_amd64.s).
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask
// (kernel_amd64.s).
func xgetbv0() (eax, edx uint32)

// fuseK2AVX2 runs the four-lane k=2 kernel (kernel_amd64.s) over nb
// base endpoints for the four lane segments starting at clos/chis
// (Batch layout: stride 4, sentinels at slots 0 and 3). It writes the
// base-threshold selections to outLo/outHi ([4]float64, +Inf/-Inf when
// nothing qualified) and the base coverage at the 16 candidate
// thresholds to bcov ([16]int64, threshold-major: clo0 lanes 0-3, then
// clo1, chi0, chi1). When nb is 0 the pointers into the base arrays are
// dummies and must not be dereferenced — the assembly loop body is
// skipped entirely.
//
//go:noescape
func fuseK2AVX2(blos, bhis *float64, nb int, thrLo, thrHi *int64, clos, chis *float64, outLo, outHi *float64, bcov *int64)

// haveAVX2 reports runtime AVX2 support: AVX2 in CPUID.7.0:EBX plus
// OSXSAVE/AVX in CPUID.1:ECX with the OS actually enabling XMM+YMM
// state in XCR0 (the same ladder golang.org/x/sys/cpu walks).
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if ecx1&osxsaveAndAVX != osxsaveAndAVX {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&0x6 != 0x6 { // XMM and YMM state OS-enabled
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0
}

// defaultKernel selects the startup kernel: the AVX2 four-lane kernel
// when the CPU supports it, the generic merge kernel otherwise.
func defaultKernel() kernelKind {
	if haveAVX2 {
		return kernelAVX2
	}
	return kernelGeneric
}

// kernelDummyF64/kernelDummyI64 give fuseK2AVX2 valid (never
// dereferenced) pointers when the base is empty.
var (
	kernelDummyF64 float64
	kernelDummyI64 int64
)

// fuseLanesAVX2 drives fuseK2AVX2 over b's lanes in groups of four and
// finalizes each lane's candidate thresholds in Go (finalizeK2, shared
// with the pure-Go fuseLaneK2 — the assembly computes exactly Part A
// and Part B of fuseLaneK2's pass). It returns the number of lanes
// consumed; the remainder (b.n mod 4) falls through to fuseLaneK2 in
// fuseBatchLanes.
func (s *Sweeper) fuseLanesAVX2(b *Batch, need int, out []Interval, widths []float64, ok []bool) int {
	nb := len(s.los)
	blos, bhis := &kernelDummyF64, &kernelDummyF64
	tlo, thi := &kernelDummyI64, &kernelDummyI64
	if nb > 0 {
		blos, bhis = &s.los[0], &s.his[0]
		tlo, thi = &s.thrLo[0], &s.thrHi[0]
	}
	var outLo, outHi [4]float64
	var bcov [16]int64
	g := 0
	for ; g+4 <= b.n; g += 4 {
		seg := g * 4 // stride is k+2 = 4
		fuseK2AVX2(blos, bhis, nb, tlo, thi, &b.los[seg], &b.his[seg], &outLo[0], &outHi[0], &bcov[0])
		for l := 0; l < 4; l++ {
			ls := seg + l*4
			iv, o := finalizeK2(outLo[l], outHi[l],
				bcov[l], bcov[4+l], bcov[8+l], bcov[12+l],
				b.los[ls+1], b.los[ls+2], b.his[ls+1], b.his[ls+2], need)
			if out != nil {
				out[g+l] = iv
			} else {
				widths[g+l] = iv.Hi - iv.Lo
			}
			ok[g+l] = o
		}
	}
	return g
}
