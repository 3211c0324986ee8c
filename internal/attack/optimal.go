package attack

import (
	"math"
	"math/rand"

	"sensorfusion/internal/interval"
)

// Optimal implements the attack policies of Section III-A as one
// strategy:
//
//   - With full knowledge (no unseen correct intervals) it solves problem
//     (1): maximize |S_{N,f}| over the placements of her intervals subject
//     to stealth, by exhaustive search over discretized candidates.
//   - With partial knowledge it solves problem (2): maximize the expected
//     |S_{N,f}| over all possible placements of the unseen correct
//     intervals (and the unknown true value within Delta), enumerating
//     the discretized placement space exactly when small and falling back
//     to Monte Carlo sampling when large.
//
// Plans are cached under a 64-bit FNV-1a hash of the canonicalized,
// quantized context (and the effective MaxExact, MCSamples and MaxTuples)
// in an open-addressing table whose values live in one chunked arena
// (planMemo), so both cache hits AND the steady-state miss path are
// allocation-free — table and arena growth is the only allocation left,
// amortized to nothing over a sweep. The decision problem commutes with
// translation, so when shifting by Delta.Lo is exact (translation) the
// context is hashed and searched relative to Delta and the plan shifted
// back: a translated copy of a solved decision is a memo hit, bit for
// bit the plan its own search would return. The search itself
// is batched: the unseen-completion worlds are enumerated once per
// context into a flat arena and preloaded into incremental
// interval.Sweepers, every stealthy candidate tuple is packed once
// straight into an interval.Batch by a row-wise odometer (the winner is
// rebuilt from its lane's odometer index, never stored as a tuple), and
// each world scores the whole batch in a single branch-lean ScoreBatch
// pass — no per-candidate sorting, copying, or allocation, and no
// per-(candidate, world) call overhead.
//
// An Optimal is not safe for concurrent use (the campaign engine builds
// one per task); the zero value works but never caches — use NewOptimal.
type Optimal struct {
	memo *planMemo
	// MaxTuples caps the number of candidate placement tuples examined
	// per decision; the candidate grid is thinned (step doubled) until
	// the cap holds. Zero selects a default.
	MaxTuples int
	// MemoCap bounds the plan cache. Continuous-valued workloads (the
	// case study) produce unique contexts every round; the cap keeps the
	// cache from growing without bound. Zero selects a default.
	MemoCap int

	// Scratch reused across Plan calls; all per-decision state lives
	// here so a steady-state cache miss allocates nothing and a cache
	// hit allocates nothing.
	eval       evaluator
	seenSorted []interval.Interval
	uwSorted   []float64
	// The translated context's Seen and OwnSent, and the plan shifted
	// back out of the canonical frame. They start out in shArr, inside
	// the Optimal itself, so translating allocates nothing until one of
	// them outgrows 8 intervals.
	shSeen   []interval.Interval
	shSent   []interval.Interval
	out      []interval.Interval
	shArr    [3][8]interval.Interval
	placed   []interval.Interval
	fallback []interval.Interval
	sets     [][]float64
	setBuf   [][]float64
	// Batched-search scratch: the stealthy tuples of one decision in the
	// kernel's endpoint-sorted shape (batch), each lane's flat odometer
	// index (lanes, which the winner is rebuilt from), the odometer (idx)
	// and its row's undecided dimensions, and the score accumulators.
	batch     interval.Batch
	lanes     []int
	idx       []int
	undecided []int
	sums      []float64
	counts    []int
	widths    []float64
	oks       []bool
	// Active-mode stealth classification (pruneActive): the OwnSent
	// intervals still needing a per-tuple check with their precomputed
	// pool skips, and the per-dimension decided flags for surviving
	// candidate centers.
	sentIvs    []interval.Interval
	sentSkip   []int
	decided    [][]bool
	decidedBuf [][]bool
	// Witness segments for the k == 2 residual fast path: per dimension,
	// prefix offsets into witArena bracketing each undecided center's
	// segments (empty range for decided centers).
	witOff    [][]int
	witOffBuf [][]int
	witArena  []interval.Interval
	witPts    []float64
}

// NewOptimal returns an Optimal strategy with an empty plan cache.
func NewOptimal() *Optimal { return &Optimal{memo: &planMemo{}} }

// Name returns "optimal".
func (o *Optimal) Name() string { return "optimal" }

const (
	defaultMaxTuples = 4000
	defaultMemoCap   = 1 << 17
)

// Plan implements Strategy. The returned slice is owned by the strategy
// (it points into the memo arena, or into a reused buffer holding the
// plan shifted back out of the canonical frame — allocation-free either
// way) and is only valid until the next Plan call; callers must copy
// what they retain and must not modify it.
func (o *Optimal) Plan(ctx Context) []interval.Interval {
	if err := ctx.Validate(); err != nil {
		return nil
	}
	t, canonical := translation(ctx)
	if t != 0 {
		if o.out == nil {
			o.shSeen, o.shSent, o.out = o.shArr[0][:0], o.shArr[1][:0], o.shArr[2][:0]
		}
		ctx.Delta = ctx.Delta.Translate(-t)
		o.shSeen = translateInto(o.shSeen, ctx.Seen, -t)
		o.shSent = translateInto(o.shSent, ctx.OwnSent, -t)
		ctx.Seen, ctx.OwnSent = o.shSeen, o.shSent
	}
	key := o.hashContext(ctx, canonical)
	plan, ok := o.memo.get(key)
	if !ok {
		plan = o.plan(ctx)
		memoCap := o.MemoCap
		if memoCap <= 0 {
			memoCap = defaultMemoCap
		}
		if o.memo != nil && o.memo.count < memoCap {
			plan = o.memo.insert(key, plan)
		}
	}
	if t == 0 {
		return plan
	}
	o.out = translateInto(o.out, plan, t)
	return o.out
}

// translation returns the shift Plan removes from ctx before hashing and
// searching it — Delta.Lo — and whether that shift is exact, so that
// plan(ctx) = plan(ctx−t) + t bit for bit. It is exact when every
// coordinate, every width and the step are multiples of 2^-10 of
// magnitude at most 2^20, and the unseen worlds are enumerated rather
// than sampled (the Monte Carlo seed, rngSeed, reads absolute
// positions). Every sum and difference the search forms is then a
// multiple of 2^-12 far inside float64's exact range in both frames, and
// its tolerance compares (1e-9) sit far below that grid, so candidate
// grids, alignments, witness segments, truth points, world centers,
// fused widths and the strict argmax agree in both frames. Otherwise it
// returns (0, false) and the search runs on absolute positions.
func translation(ctx Context) (float64, bool) {
	if !onGrid(ctx.step()) || !onGrid(ctx.Delta.Lo) || !onGrid(ctx.Delta.Hi) || ctx.sampled() {
		return 0, false
	}
	for _, ivs := range [2][]interval.Interval{ctx.Seen, ctx.OwnSent} {
		for _, iv := range ivs {
			if !onGrid(iv.Lo) || !onGrid(iv.Hi) {
				return 0, false
			}
		}
	}
	for _, ws := range [2][]float64{ctx.OwnWidths, ctx.UnseenWidths} {
		for _, w := range ws {
			if !onGrid(w) {
				return 0, false
			}
		}
	}
	return ctx.Delta.Lo, true
}

// onGrid reports whether x is a multiple of 2^-10 with |x| <= 2^20.
func onGrid(x float64) bool {
	v := x * 1024
	return v == math.Trunc(v) && math.Abs(x) <= 1<<20
}

// translateInto returns src shifted by d, written over dst's storage.
func translateInto(dst, src []interval.Interval, d float64) []interval.Interval {
	dst = dst[:0]
	for _, iv := range src {
		dst = append(dst, iv.Translate(d))
	}
	return dst
}

func (o *Optimal) plan(ctx Context) []interval.Interval {
	// The fallback (correct readings, centered on Delta) built into a
	// reused buffer — correctFallback's shape without its allocation.
	c := ctx.Delta.Center()
	o.fallback = o.fallback[:0]
	for _, w := range ctx.OwnWidths {
		o.fallback = append(o.fallback, interval.MustCentered(c, w))
	}
	fallback := o.fallback
	cands := o.candidateSets(ctx)
	if cands == nil {
		return fallback
	}
	k := len(ctx.OwnWidths)
	need := ctx.N - ctx.F - 1
	// Passive-mode stealth is a per-dimension predicate and
	// candidateSets has already pruned each dimension down to the
	// placements that satisfy it, so every passive tuple is stealthy by
	// construction. Active-mode stealth couples the dimensions, but most
	// of it still factors: pruneActive classifies every candidate center
	// against the seen-only coverage once per decision, pruning hopeless
	// placements and marking decided ones, so the per-tuple residual is
	// usually empty.
	passive := ctx.Mode() == Passive
	if !passive && !o.pruneActive(ctx, cands, need) {
		return fallback // some stealth obligation is unsatisfiable
	}
	e := &o.eval
	e.init(ctx)
	if cap(o.placed) < k {
		o.placed = make([]interval.Interval, k)
	}
	placed := o.placed[:k]

	// Enumerate the stealthy candidate tuples straight into the batch
	// (endpoint-sorted, for the kernel), in the lexicographic order the
	// strict argmax below depends on (dimension 0 slowest). No tuple is
	// stored: each lane records its flat mixed-radix odometer index, and
	// the winner is rebuilt from the candidate sets after the argmax.
	o.batch.Reset(k)
	// The fallback (when stealthy) rides the batch as lane 0 (index -1):
	// the argmax seeds its baseline from it and never selects it, so ties
	// keep the fallback, exactly like a strict `s > bestScore` update.
	lanes := o.lanes[:0]
	fallbackLane := 0
	if ctx.StealthOK(fallback) {
		fallbackLane = 1
		o.batch.Add(fallback)
		lanes = append(lanes, -1)
	}
	nSeen := len(ctx.Seen)
	pool := stealthPool{seen: ctx.Seen, placed: placed}
	// With exactly two placements the only co-placement that can help an
	// undecided center is the other dimension's interval, and pruneActive
	// precomputed where that help suffices (witness segments); the
	// per-tuple residual is then a couple of overlap compares.
	fastWit := !passive && k == 2
	// Row-wise odometer: idx steps dimensions 0..k-2, which stay fixed
	// along a row, so their placements, which of them still owe a
	// per-tuple check, and dimension 0's witness segments are resolved
	// once per row; the inner loop sweeps the last dimension.
	last := k - 1
	lastCands, lastW := cands[last], ctx.OwnWidths[last]
	o.idx = resizeInts(o.idx, last)
	idx := o.idx
	clear(idx)
	for base := 0; ; base += len(lastCands) {
		undecided := o.undecided[:0]
		for d := 0; d < last; d++ {
			w := ctx.OwnWidths[d]
			cc := cands[d][idx[d]]
			placed[d] = interval.Interval{Lo: cc - w/2, Hi: cc + w/2}
			if !passive && !o.decided[d][idx[d]] {
				undecided = append(undecided, d)
			}
		}
		o.undecided = undecided
		var rowWit []interval.Interval
		if fastWit && len(undecided) > 0 {
			off := o.witOff[0]
			rowWit = o.witArena[off[idx[0]]:off[idx[0]+1]]
		}
	tuples:
		for j, cc := range lastCands {
			placed[last] = interval.Interval{Lo: cc - lastW/2, Hi: cc + lastW/2}
			if !passive {
				// Residual active checks: only the undecided obligations,
				// against the full pool, with skips resolved up front. The
				// conjunction is exactly StealthOK's (the decided parts were
				// proven per center by pruneActive).
				for si, a := range o.sentIvs {
					skip := o.sentSkip[si]
					if skip < 0 {
						skip = pool.skipOf(a)
					}
					if !pool.windowReachesSkip(a, skip, need) {
						continue tuples
					}
				}
				if fastWit {
					if len(undecided) > 0 && !overlapsAny(rowWit, placed[1]) {
						continue
					}
					if off := o.witOff[1]; !o.decided[1][j] && !overlapsAny(o.witArena[off[j]:off[j+1]], placed[0]) {
						continue
					}
				} else {
					for _, d := range undecided {
						if !pool.windowReachesSkip(placed[d], nSeen+d, need) {
							continue tuples
						}
					}
					if !o.decided[last][j] && !pool.windowReachesSkip(placed[last], nSeen+last, need) {
						continue
					}
				}
			}
			o.batch.Add(placed)
			lanes = append(lanes, base+j)
		}
		d := last - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(cands[d]) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			break
		}
	}
	o.lanes = lanes
	nb := o.batch.Len()
	if nb == fallbackLane {
		return fallback // no stealthy candidate tuple: nothing to score
	}

	// Score the whole batch world by world. Per tuple, the widths
	// accumulate in world-enumeration order — exactly the summation
	// order a per-tuple scalar scoring loop would use, so the scores
	// (and the plan the argmax selects) are bit-identical to the scalar
	// search.
	o.sums = resizeFloats(o.sums, nb)
	o.widths = resizeFloats(o.widths, nb)
	o.counts = resizeInts(o.counts, nb)
	if cap(o.oks) < nb {
		o.oks = make([]bool, nb)
	}
	oks := o.oks[:nb]
	clear(o.sums)
	clear(o.counts)
	for w := range e.sweeps {
		e.sweeps[w].ScoreBatch(&o.batch, e.f, o.widths, oks)
		for i, ok := range oks {
			if ok {
				o.sums[i] += o.widths[i]
				o.counts[i]++
			}
		}
	}
	// Strict argmax in enumeration order — identical tie-breaking to the
	// sequential `s > bestScore` update of the recursive search. Tuples
	// with no fusing world score -Inf there and can never win; skipping
	// them is the same comparison. The baseline comes from the fallback's
	// lane (no fusing world ≡ the -Inf expectedWidth returned): same
	// world-order summation, same bits.
	bestScore := math.Inf(-1)
	if fallbackLane == 1 && o.counts[0] > 0 {
		bestScore = o.sums[0] / float64(o.counts[0])
	}
	bestIdx := -1
	for i := fallbackLane; i < nb; i++ {
		if o.counts[i] == 0 {
			continue
		}
		if s := o.sums[i] / float64(o.counts[i]); s > bestScore {
			bestScore, bestIdx = s, i
		}
	}
	if bestIdx < 0 {
		return fallback
	}
	// Rebuild the winner from its lane's odometer index, last dimension
	// fastest, with the enumeration's own placement arithmetic.
	flat := lanes[bestIdx]
	for d := last; d >= 0; d-- {
		w, cc := ctx.OwnWidths[d], cands[d][flat%len(cands[d])]
		placed[d] = interval.Interval{Lo: cc - w/2, Hi: cc + w/2}
		flat /= len(cands[d])
	}
	return placed
}

// overlapsAny reports whether iv shares a point with any of segs.
func overlapsAny(segs []interval.Interval, iv interval.Interval) bool {
	for _, s := range segs {
		if s.Lo <= iv.Hi && iv.Lo <= s.Hi {
			return true
		}
	}
	return false
}

// resizeFloats returns buf with length n, reusing capacity.
func resizeFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// resizeInts returns buf with length n, reusing capacity.
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// maxTuples returns the effective MaxTuples.
func (o *Optimal) maxTuples() int {
	if o.MaxTuples > 0 {
		return o.MaxTuples
	}
	return defaultMaxTuples
}

// candidateSets builds per-interval candidate center sets, thinning the
// grid until the total tuple count respects MaxTuples, then pruning
// dominated placements. It returns nil when any interval admits no
// candidate (impossible passive placement).
//
// Grid thinning cannot shrink the critical-alignment candidates, so
// after a bounded number of doublings the sets are subsampled outright.
//
// The pruning runs after thinning on purpose: thinning decisions (step
// doublings, subsample spacing) are driven by the unpruned counts, so
// they — and therefore the surviving candidate grid and the selected
// plan — are bit-identical to the unpruned search; pruning only removes
// placements the per-tuple stealth check would have rejected anyway.
func (o *Optimal) candidateSets(ctx Context) [][]float64 {
	maxTuples := o.maxTuples()
	step := ctx.step()
	const maxDoublings = 12
	// sets and the per-dimension backing arrays are scratch reused
	// across decisions (and across thinning iterations).
	for len(o.setBuf) < len(ctx.OwnWidths) {
		o.setBuf = append(o.setBuf, nil)
	}
	var sets [][]float64
	for iter := 0; ; iter++ {
		thinned := ctx
		thinned.Step = step
		sets = o.sets[:0]
		total := 1
		for k, w := range ctx.OwnWidths {
			o.setBuf[k] = appendCandidateCenters(o.setBuf[k][:0], thinned, w)
			if len(o.setBuf[k]) == 0 {
				return nil
			}
			sets = append(sets, o.setBuf[k])
			total *= len(o.setBuf[k])
		}
		o.sets = sets
		if total <= maxTuples {
			break
		}
		if iter >= maxDoublings {
			perDim := perDimBudget(maxTuples, len(sets))
			for k := range sets {
				sets[k] = subsample(sets[k], perDim)
			}
			break
		}
		step *= 2
	}
	if ctx.Mode() == Passive {
		// Dominated-placement pruning: passive stealth — the exact
		// per-interval predicate StealthOK applies (valid, width within
		// tolerance, contains Delta) — factors over dimensions, so any
		// tuple using a failing center fails as a whole. Dropping those
		// centers up front shrinks the scored batch without touching the
		// argmax.
		for k := range sets {
			w := ctx.OwnWidths[k]
			kept := sets[k][:0]
			for _, cc := range sets[k] {
				iv := interval.Interval{Lo: cc - w/2, Hi: cc + w/2}
				if !iv.Valid() {
					continue
				}
				if diff := iv.Width() - w; diff > 1e-9 || diff < -1e-9 {
					continue
				}
				if !iv.ContainsInterval(ctx.Delta) {
					continue
				}
				kept = append(kept, cc)
			}
			if len(kept) == 0 {
				return nil
			}
			sets[k] = kept
		}
	}
	return sets
}

// pruneActive classifies the active-mode stealth obligations once per
// decision against the seen-only coverage, so the per-tuple check inside
// the enumeration shrinks to a usually-empty residual. It returns false
// when no tuple can be stealthy (the whole search collapses to the
// fallback). The classification is exact — it changes which work runs,
// never which tuples pass:
//
//   - Placement coverage is monotone in the pool: adding intervals never
//     lowers it. A placed interval's own obligation (a point covered by
//     need others) therefore decomposes per dimension into a band: if
//     even the seen intervals plus the best case k-1 co-placements
//     cannot reach need, every tuple using that center fails — prune it;
//     if the seen intervals alone reach need, every tuple passes for
//     this dimension — mark it decided; between the two bounds the tuple
//     check remains.
//   - The thresholds account for which equal copy the full-pool check
//     skips: a center equal to a seen interval loses that seen copy but
//     keeps its own placed copy (+1 unconditionally on its window), a
//     center not in Seen loses its placed copy.
//   - OwnSent obligations get the same triage (hopeless / decided /
//     per-tuple), with their pool skip index resolved once.
//   - The validity and width-tolerance checks StealthOK applies per
//     placed interval are per-dimension predicates; they prune centers
//     here exactly as they would have rejected tuples there.
func (o *Optimal) pruneActive(ctx Context, cands [][]float64, need int) bool {
	k := len(ctx.OwnWidths)
	seenPool := stealthPool{seen: ctx.Seen}
	o.sentIvs = o.sentIvs[:0]
	o.sentSkip = o.sentSkip[:0]
	if need > 0 {
		for _, a := range ctx.OwnSent {
			skip := seenPool.skipOf(a)
			if skip < 0 {
				// Not among Seen (never true for a well-formed context):
				// keep the fully dynamic per-tuple check.
				o.sentIvs = append(o.sentIvs, a)
				o.sentSkip = append(o.sentSkip, -1)
				continue
			}
			maxCov := seenPool.windowMaxCov(a, skip, need)
			if need-k > 0 && maxCov < need-k {
				return false // unreachable even with every placement helping
			}
			if maxCov >= need {
				continue // reaches need on Seen alone: passes in every tuple
			}
			o.sentIvs = append(o.sentIvs, a)
			o.sentSkip = append(o.sentSkip, skip)
		}
	}
	for len(o.decidedBuf) < k {
		o.decidedBuf = append(o.decidedBuf, nil)
	}
	for len(o.witOffBuf) < k {
		o.witOffBuf = append(o.witOffBuf, nil)
	}
	// Witness fast path (k == 2 only): an undecided center's seen-only
	// coverage tops out exactly one short of decided — relNeed — so a
	// tuple satisfies its obligation iff the other placed interval touches
	// a point of the window where seen coverage already reaches relNeed
	// (that point then gains the one missing count). Those points form
	// closed segments with endpoints among the window bounds and seen
	// endpoints; precompute them here and the per-tuple residual becomes
	// an overlap test against them.
	fast := k == 2
	o.decided = o.decided[:0]
	o.witOff = o.witOff[:0]
	o.witArena = o.witArena[:0]
	for d := range cands {
		w := ctx.OwnWidths[d]
		kept := cands[d][:0]
		dec := o.decidedBuf[d][:0]
		var off []int
		if fast {
			off = append(o.witOffBuf[d][:0], len(o.witArena))
		}
		for _, cc := range cands[d] {
			iv := interval.Interval{Lo: cc - w/2, Hi: cc + w/2}
			if !iv.Valid() {
				continue
			}
			if diff := iv.Width() - w; diff > 1e-9 || diff < -1e-9 {
				continue
			}
			skip := seenPool.skipOf(iv)
			relNeed, decNeed := need-(k-1), need
			if skip >= 0 {
				// Equal seen copy skipped; the placed copy itself covers
				// its whole window, worth one unconditional count.
				relNeed, decNeed = need-k, need-1
			}
			decided := true
			if decNeed > 0 {
				maxCov := seenPool.windowMaxCov(iv, skip, decNeed)
				if relNeed > 0 && maxCov < relNeed {
					continue
				}
				decided = maxCov >= decNeed
			}
			dec = append(dec, decided)
			kept = append(kept, cc)
			if fast {
				if !decided {
					o.witArena, o.witPts = appendWitnessSegments(
						o.witArena, o.witPts, ctx.Seen, iv, skip, relNeed)
				}
				off = append(off, len(o.witArena))
			}
		}
		if len(kept) == 0 {
			return false
		}
		cands[d] = kept
		o.decidedBuf[d] = dec
		o.decided = append(o.decided, dec)
		if fast {
			o.witOffBuf[d] = off
			o.witOff = append(o.witOff, off)
		}
	}
	return true
}

// appendWitnessSegments appends to dst the maximal closed segments of
// {x in window a : at least level seen intervals other than index skip
// contain x}. Coverage is piecewise constant between endpoints, and an
// interval covering an open gap between adjacent candidate points covers
// its closure, so a run of qualifying points joined by qualifying gaps is
// exactly one maximal segment. pts is sort/dedup scratch, returned for
// reuse.
func appendWitnessSegments(dst []interval.Interval, pts []float64, seen []interval.Interval, a interval.Interval, skip, level int) ([]interval.Interval, []float64) {
	if level <= 0 {
		return append(dst, a), pts
	}
	pts = append(pts[:0], a.Lo)
	if a.Hi > a.Lo {
		pts = append(pts, a.Hi)
	}
	for i, iv := range seen {
		if i == skip {
			continue
		}
		if iv.Lo > a.Lo && iv.Lo < a.Hi {
			pts = append(pts, iv.Lo)
		}
		if iv.Hi > a.Lo && iv.Hi < a.Hi {
			pts = append(pts, iv.Hi)
		}
	}
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j-1] > pts[j]; j-- {
			pts[j-1], pts[j] = pts[j], pts[j-1]
		}
	}
	u := 1
	for i := 1; i < len(pts); i++ {
		if pts[i] != pts[u-1] {
			pts[u] = pts[i]
			u++
		}
	}
	pts = pts[:u]
	for i := 0; i < len(pts); {
		if seenCovAt(seen, skip, pts[i]) < level {
			i++
			continue
		}
		j := i
		for j+1 < len(pts) && seenCovGap(seen, skip, pts[j], pts[j+1]) >= level {
			j++
		}
		dst = append(dst, interval.Interval{Lo: pts[i], Hi: pts[j]})
		i = j + 1
	}
	return dst, pts
}

// seenCovAt counts the seen intervals other than index skip containing x.
func seenCovAt(seen []interval.Interval, skip int, x float64) int {
	c := 0
	for i, iv := range seen {
		if i != skip && iv.Lo <= x && x <= iv.Hi {
			c++
		}
	}
	return c
}

// seenCovGap counts the seen intervals other than index skip covering the
// whole closed span [a, b] — the coverage of the open gap (a, b) between
// adjacent candidate points, since a closed interval covering the open
// gap covers its closure.
func seenCovGap(seen []interval.Interval, skip int, a, b float64) int {
	c := 0
	for i, iv := range seen {
		if i != skip && iv.Lo <= a && iv.Hi >= b {
			c++
		}
	}
	return c
}

// perDimBudget returns the largest b with b^dims <= maxTuples (at least 1).
func perDimBudget(maxTuples, dims int) int {
	b := 1
	for {
		next := b + 1
		prod := 1
		for d := 0; d < dims; d++ {
			prod *= next
			if prod > maxTuples {
				return b
			}
		}
		b = next
	}
}

// subsample keeps at most n candidates, evenly spaced, always retaining
// the first and last (the extreme placements). It compacts in place —
// the source index k*(len-1)/(n-1) never falls below the destination
// index k, so forward copying reads each slot before overwriting it.
func subsample(cands []float64, n int) []float64 {
	if n <= 0 {
		n = 1
	}
	if len(cands) <= n {
		return cands
	}
	if n == 1 {
		return cands[:1]
	}
	last := len(cands) - 1
	for k := 1; k < n; k++ {
		cands[k] = cands[k*last/(n-1)]
	}
	return cands[:n]
}

// evaluator computes the attacker's objective for candidate plans: the
// (expected) fusion interval width over her belief about unseen
// placements. It is the hot core of the plan search, rebuilt by init
// once per decision and scored batch-at-a-time; all buffers persist
// across decisions so steady-state searches do not allocate at all.
type evaluator struct {
	f int // fusion fault bound; every scored set has exactly ctx.N intervals

	// Worlds: every enumerated/sampled completion of the unseen
	// sensors, stride intervals each, laid out in one flat arena in
	// enumeration order (the order fixes the expectation's summation
	// order, which the byte-identity contract depends on).
	stride int
	arena  []interval.Interval
	// sweeps[w] holds world w's fixed intervals — ctx.Seen plus the
	// world's completion — presorted for incremental candidate scoring.
	sweeps []interval.Sweeper

	// Enumeration scratch: the truth grid, and the odometer state of the
	// exact world enumeration (current center and inclusive limit per
	// unseen sensor).
	truths  []float64
	centers []float64
	limits  []float64
	// rng backs the Monte Carlo fallback, reseeded per decision — the
	// same generator and stream rand.New(rand.NewSource(seed)) produced,
	// without the per-decision allocation.
	rng *rand.Rand
}

// init rebuilds the evaluator for one decision context. The enumeration
// (truth grid × per-sensor offset grids, or the seeded Monte Carlo
// fallback past MaxExact) visits worlds in the order — and accumulates
// the per-sensor centers with the same repeated additions — as the
// original recursive formulation, so the worlds, and therefore every
// plan the search returns, are bit-identical to it. The recursion itself
// is gone: a flat odometer walks the grid without closure allocations.
func (e *evaluator) init(ctx Context) {
	e.f = ctx.F
	e.stride = len(ctx.UnseenWidths)
	e.arena = e.arena[:0]
	if e.stride == 0 {
		// Full knowledge: a single empty world.
		e.prepareSweeps(ctx, 1)
		return
	}
	e.truths = ctx.appendTruthPoints(e.truths[:0])
	step := ctx.step()
	if !ctx.sampled() {
		d := e.stride
		if cap(e.centers) < d {
			e.centers = make([]float64, d)
			e.limits = make([]float64, d)
		}
		centers, limits := e.centers[:d], e.limits[:d]
		for _, t := range e.truths {
			// Every dimension's grid starts at t-w/2 and advances by
			// repeated `+= step` up to t+w/2 (tolerance for float
			// accumulation), exactly like the recursive per-level loops;
			// a carry resets the dimension to its fresh start value.
			for k, w := range ctx.UnseenWidths {
				centers[k] = t - w/2
				limits[k] = t + w/2 + 1e-9
			}
			for {
				for k, w := range ctx.UnseenWidths {
					c := centers[k]
					e.arena = append(e.arena, interval.Interval{Lo: c - w/2, Hi: c + w/2})
				}
				k := d - 1
				for k >= 0 {
					centers[k] += step
					if centers[k] <= limits[k] {
						break
					}
					centers[k] = t - ctx.UnseenWidths[k]/2
					k--
				}
				if k < 0 {
					break
				}
			}
		}
	} else {
		if e.rng == nil {
			e.rng = rand.New(rand.NewSource(1))
		}
		e.rng.Seed(ctx.rngSeed())
		rng := e.rng
		for s := 0; s < ctx.mcSamples(); s++ {
			t := ctx.Delta.Lo + rng.Float64()*ctx.Delta.Width()
			for _, w := range ctx.UnseenWidths {
				c := t + (rng.Float64()-0.5)*w
				e.arena = append(e.arena, interval.Interval{Lo: c - w/2, Hi: c + w/2})
			}
		}
	}
	e.prepareSweeps(ctx, len(e.arena)/e.stride)
}

// prepareSweeps preloads one incremental sweeper per world with that
// world's fixed intervals (Seen plus the world's unseen completion).
// Sweeper buffers — including the sentinel arrays the batch kernel
// rebuilds lazily — are reused across decisions.
func (e *evaluator) prepareSweeps(ctx Context, worlds int) {
	if cap(e.sweeps) < worlds {
		e.sweeps = append(e.sweeps[:cap(e.sweeps)], make([]interval.Sweeper, worlds-cap(e.sweeps))...)
	}
	e.sweeps = e.sweeps[:worlds]
	for w := 0; w < worlds; w++ {
		sw := &e.sweeps[w]
		sw.Preload(ctx.Seen)
		for _, iv := range e.arena[w*e.stride : w*e.stride+e.stride] {
			sw.Add(iv)
		}
	}
}

// --- Plan memo ------------------------------------------------------------

const (
	// memoInitialSlots sizes the first open-addressing table; a sweep's
	// working set of distinct contexts is typically far below it.
	memoInitialSlots = 1 << 10
	// memoArenaChunk is the minimum plan-arena growth (in intervals):
	// the arena grows by at least this chunk and by doubling thereafter,
	// so inserts never allocate per entry.
	memoArenaChunk = 1 << 12
)

// planMemo is the plan cache: an open-addressing hash table (linear
// probing, power-of-two sized, ≤3/4 load) whose entries point into one
// chunked interval arena. Compared to the map[uint64][]Interval it
// replaced, neither lookups nor inserts allocate — an insert copies the
// plan into the arena tail and writes one slot — and growth (table
// doubling, arena chunk-doubling) amortizes to zero allocations per
// decision. Offsets rather than pointers index the arena, so arena
// growth relocating the backing array is harmless.
type planMemo struct {
	slots []memoSlot
	arena []interval.Interval
	count int
}

// memoSlot is one table entry; n == 0 marks an empty slot (plans are
// never empty — Validate rejects contexts with nothing to place).
type memoSlot struct {
	key uint64
	off uint32
	n   uint32
}

// get returns the cached plan for key, allocation-free. A nil memo
// caches nothing.
func (m *planMemo) get(key uint64) ([]interval.Interval, bool) {
	if m == nil || m.count == 0 {
		return nil, false
	}
	mask := uint64(len(m.slots) - 1)
	for i := key & mask; ; i = (i + 1) & mask {
		s := m.slots[i]
		if s.n == 0 {
			return nil, false
		}
		if s.key == key {
			return m.arena[s.off : s.off+s.n : s.off+s.n], true
		}
	}
}

// insert copies plan into the arena, records it under key, and returns
// the arena-backed copy. Steady-state inserts perform zero allocations;
// growth is amortized doubling.
func (m *planMemo) insert(key uint64, plan []interval.Interval) []interval.Interval {
	if len(plan) == 0 {
		return plan
	}
	if 4*(m.count+1) > 3*len(m.slots) {
		m.grow()
	}
	off := len(m.arena)
	if off+len(plan) > cap(m.arena) {
		newCap := cap(m.arena)
		if newCap < memoArenaChunk {
			newCap = memoArenaChunk
		}
		for newCap < off+len(plan) {
			newCap *= 2
		}
		na := make([]interval.Interval, off, newCap)
		copy(na, m.arena)
		m.arena = na
	}
	m.arena = append(m.arena, plan...)
	mask := uint64(len(m.slots) - 1)
	i := key & mask
	for m.slots[i].n != 0 && m.slots[i].key != key {
		i = (i + 1) & mask
	}
	if m.slots[i].n == 0 {
		m.count++
	}
	m.slots[i] = memoSlot{key: key, off: uint32(off), n: uint32(len(plan))}
	return m.arena[off : off+len(plan) : off+len(plan)]
}

// grow doubles the table (or creates the initial one) and rehashes.
func (m *planMemo) grow() {
	n := 2 * len(m.slots)
	if n == 0 {
		n = memoInitialSlots
	}
	old := m.slots
	m.slots = make([]memoSlot, n)
	mask := uint64(n - 1)
	for _, s := range old {
		if s.n == 0 {
			continue
		}
		i := s.key & mask
		for m.slots[i].n != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}

// --- Context hashing ------------------------------------------------------

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvHash accumulates 64-bit FNV-1a over fixed-width words.
type fnvHash uint64

func (h *fnvHash) word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnvPrime64
		v >>= 8
	}
	*h = fnvHash(x)
}

func (h *fnvHash) int(v int)       { h.word(uint64(int64(v))) }
func (h *fnvHash) float(v float64) { h.word(math.Float64bits(round6(v))) }

// hashContext canonicalizes the decision-relevant context fields into a
// 64-bit key: the same fields, quantization (round6), and Seen/unseen
// canonical ordering as the old string key, with section markers so
// field boundaries cannot alias. Seen interval order does not affect
// the optimum, so Seen is sorted (by Lo, then Hi) into a reused scratch
// before hashing; likewise the unseen widths. The effective MaxExact,
// MCSamples and MaxTuples are part of the key (one Optimal may serve
// setups that differ only in them), and so is canonical: a context
// translated relative to Delta never shares an entry with one searched
// on absolute positions.
func (o *Optimal) hashContext(ctx Context, canonical bool) uint64 {
	h := fnvHash(fnvOffset64)
	if canonical {
		h.word('T')
	}
	h.int(ctx.N)
	h.int(ctx.F)
	h.int(ctx.Sent)
	h.int(ctx.maxExact())
	h.int(ctx.mcSamples())
	h.int(o.maxTuples())
	h.float(ctx.Delta.Lo)
	h.float(ctx.Delta.Hi)
	h.float(ctx.step())
	o.seenSorted = append(o.seenSorted[:0], ctx.Seen...)
	sortIntervals(o.seenSorted)
	for _, s := range o.seenSorted {
		h.float(s.Lo)
		h.float(s.Hi)
	}
	h.word('#')
	for _, s := range ctx.OwnSent {
		h.float(s.Lo)
		h.float(s.Hi)
	}
	h.word('#')
	for _, w := range ctx.OwnWidths {
		h.float(w)
	}
	h.word('#')
	o.uwSorted = append(o.uwSorted[:0], ctx.UnseenWidths...)
	for i := 1; i < len(o.uwSorted); i++ {
		for j := i; j > 0 && o.uwSorted[j-1] > o.uwSorted[j]; j-- {
			o.uwSorted[j-1], o.uwSorted[j] = o.uwSorted[j], o.uwSorted[j-1]
		}
	}
	for _, w := range o.uwSorted {
		h.float(w)
	}
	return uint64(h)
}

// sortIntervals insertion-sorts by (Lo, Hi) — deterministic, and free of
// the closure allocation sort.Slice would pay on this hot path.
func sortIntervals(ivs []interval.Interval) {
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0; j-- {
			a, b := ivs[j-1], ivs[j]
			if a.Lo < b.Lo || (a.Lo == b.Lo && a.Hi <= b.Hi) {
				break
			}
			ivs[j-1], ivs[j] = ivs[j], ivs[j-1]
		}
	}
}

func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }
