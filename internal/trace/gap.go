package trace

import (
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Trace gaps are exponentially distributed: a 53-bit draw x gives the gap
// uint32(-m·Log1p(-x/2^53)) for the workload's mean gap m (gapExpr). The
// logarithm was the largest cost of trace synthesis, so a generator looks
// the gap up in a gapTable instead, and the result is bit-identical:
//
//   - The thresholds: thr[k] is the smallest draw whose gap is at least
//     k, found by searching with gapExpr itself. A draw x with
//     thr[k] <= x < thr[k+1] has gap k. The table keeps each threshold's
//     cell, thr[k] >> gapCellBits, in 32 bits.
//   - The guard band: the expression's rounding error (Log1p is within
//     one ulp, the product within half of one) moves a threshold by less
//     than one draw unit, since the gap's slope m/(2^53·(1-u)) times its
//     relative error of about 3·2^-53 is at most 3/e units there. So
//     Log1p's rounding, which need not be monotone, can only disagree
//     with the thresholds within a unit or two of one. A draw in a
//     threshold's cell or a neighbouring cell calls gapExpr, as does a
//     draw past the last threshold; every other draw is at least a cell
//     (2^21 units) from a threshold, and its gap is exactly k. The band
//     holds about 3·2^-32 of the draws per threshold.
//   - The index finds k without a search. The gap is a function of
//     log(2^53-1-x), so the index is keyed on the octave and the top
//     mantissa bits of y = 2^53-1-x, read from float64(y)'s bit pattern
//     (exact, since y < 2^53). A bucket spans less than one gap, so it
//     holds at most one threshold, and x's gap is the bucket's first gap
//     or the next. A draw one more step away (possible only where the
//     bucket count is capped) fails the band test and calls gapExpr.
//
// A table is built once per gap mean and shared by every generator in
// the process (gapTableFor).

// drawTop is the largest 53-bit draw.
const drawTop = 1<<53 - 1

// gapCellBits is the width of a threshold cell: a draw's cell is its top
// 32 bits.
const gapCellBits = 21

// maxGapThresholds caps one table's thresholds, so that a gap fits the
// index's uint16, for workloads with a very large gap mean; draws past
// the cap call gapExpr.
const maxGapThresholds = 1<<16 - 1

// gapExpr is the gap of the 53-bit draw x for mean gap m: the inverse CDF
// of Exp(1/m) at x/2^53, clamped to 1e9.
func gapExpr(m float64, x uint64) uint32 {
	u := float64(x) / (1 << 53)
	v := -m * math.Log1p(-u)
	if v > 1e9 {
		v = 1e9
	}
	return uint32(v)
}

// gapTable maps 53-bit draws to gaps for one gap mean.
type gapTable struct {
	m float64 // the mean gap
	// cell[k] is the cell of thr[k], the smallest draw whose gap is at
	// least k; thr[0] is 0.
	cell []uint32
	// tail is the cell before the last threshold's: draws from it on go
	// to gapExpr.
	tail uint32
	// start[key(y) - base] is the largest k with thr[k] at or below the
	// bucket's smallest draw, where key(y) is float64(y)'s bit pattern
	// shifted right by shift: the octave and 52-shift mantissa bits.
	start []uint16
	shift uint
	base  uint64
}

// gap returns the gap of the 53-bit draw x.
func (t *gapTable) gap(x uint64) uint32 {
	if k, ok := t.lookup(x); ok {
		return k
	}
	return gapExpr(t.m, x)
}

// lookup returns the gap of draw x and true, or false when x lies in
// the guard band of a threshold or past the table, where the caller must
// evaluate gapExpr.
func (t *gapTable) lookup(x uint64) (uint32, bool) {
	c := uint32(x >> gapCellBits)
	if c >= t.tail {
		return 0, false
	}
	// y = drawTop-x fits an int64, whose conversion has no sign fixup.
	k := uint32(t.start[math.Float64bits(float64(int64(drawTop-x)))>>(t.shift&63)-t.base])
	// One step when x is past the next threshold's cell: the sign of the
	// difference, which a data-dependent branch would mispredict. A draw
	// in that cell fails the band test below either way.
	k += uint32((uint64(t.cell[k+1]) - uint64(c)) >> 63)
	return k, t.cell[k]+1 < c && c+1 < t.cell[k+1]
}

// newGapTable builds the table for mean gap m. It covers gaps below
// 8·m (all but e^-8 of the draws), up to maxGapThresholds (gapThresholds).
func newGapTable(m float64) *gapTable {
	thr := gapThresholds(m)
	if thr == nil {
		return &gapTable{m: m}
	}
	t := &gapTable{m: m, cell: make([]uint32, len(thr))}
	for k, x := range thr {
		t.cell[k] = uint32(x >> gapCellBits)
	}
	t.tail = max(t.cell[len(thr)-1], 1) - 1

	// A bucket spans a 2^-b share of its octave, less than m·2^-b gaps,
	// which is below one for b = bits.Len(m). Capping b at 12 bounds the
	// index for means above 4096 gaps.
	b := uint(min(max(bits.Len(uint(m)), 1), 12))
	t.shift = 52 - b
	key := func(y uint64) uint64 { return math.Float64bits(float64(y)) >> t.shift }
	// The first draw past the table has the smallest y the index needs.
	t.base = key(drawTop - uint64(t.tail)<<gapCellBits)
	t.start = make([]uint16, key(drawTop)-t.base+1)
	for i := range t.start {
		// The bucket's smallest draw has its largest y: one below the
		// first y of the next bucket.
		yEnd := uint64(math.Float64frombits((t.base + uint64(i) + 1) << t.shift))
		x := uint64(0)
		if yEnd <= drawTop {
			x = drawTop - (yEnd - 1)
		}
		t.start[i] = uint16(sort.Search(len(thr), func(k int) bool { return thr[k] > x }) - 1)
	}
	return t
}

// gapThresholds returns thr[0..n] for mean gap m, n gaps in all, or nil
// when the mean is below one gap.
func gapThresholds(m float64) []uint64 {
	n := min(math.Ceil(8*m), maxGapThresholds, float64(gapExpr(m, drawTop)))
	if !(n >= 1) {
		return nil
	}
	thr := make([]uint64, int(n)+1)
	for k := 1; k < len(thr); k++ {
		thr[k] = firstDrawAtLeast(m, uint32(k), thr[k-1])
	}
	return thr
}

// firstDrawAtLeast returns the smallest draw above lo whose gap is at
// least k, given that lo's gap is below k and drawTop's is not. It
// brackets the threshold around the exact inverse 2^53·(1-e^(-k/m)),
// then bisects.
func firstDrawAtLeast(m float64, k uint32, lo uint64) uint64 {
	g := uint64(-math.Expm1(-float64(k)/m) * (1 << 53))
	g = min(max(g, lo+1), drawTop)
	hi := g
	for d := uint64(1); gapExpr(m, hi) < k; d *= 2 {
		lo = hi
		hi = min(g+d, drawTop)
	}
	for d := uint64(1); d < hi-lo; d *= 2 {
		if gapExpr(m, hi-d) < k {
			lo = hi - d
			break
		}
		hi -= d
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if gapExpr(m, mid) >= k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// gapTables holds the process's tables, one per gap mean, each built on
// first use. The catalog has a few dozen distinct means.
var gapTables struct {
	sync.Mutex
	m map[uint64]*sharedGapTable
}

type sharedGapTable struct {
	once sync.Once
	t    *gapTable
}

// gapTableFor returns the shared table for mean gap m, building it on
// first use. Concurrent callers with the same mean wait for one build.
func gapTableFor(m float64) *gapTable {
	key := math.Float64bits(m)
	gapTables.Lock()
	s := gapTables.m[key]
	if s == nil {
		if gapTables.m == nil {
			gapTables.m = make(map[uint64]*sharedGapTable)
		}
		s = new(sharedGapTable)
		gapTables.m[key] = s
	}
	gapTables.Unlock()
	s.once.Do(func() { s.t = newGapTable(m) })
	return s.t
}
