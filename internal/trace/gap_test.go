package trace

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// log1pGap is the generator's gap as it was computed before the gap
// tables, kept verbatim as the oracle: the inverse CDF of Exp(1/gapMean)
// at the uniform draw x/2^53.
func log1pGap(gapMean float64, x uint64) uint32 {
	u := float64(x) / (1 << 53)
	if u >= 1 {
		u = 0.999999
	}
	v := -gapMean * math.Log1p(-u)
	if v > 1e9 {
		v = 1e9
	}
	return uint32(v)
}

// catalogGapMeans returns every distinct gap mean of the catalog's
// workloads, mixes included.
func catalogGapMeans() []float64 {
	ws := AllWorkloads()
	for _, mix := range Mixes(8) {
		ws = append(ws, mix.Workloads...)
	}
	seen := map[float64]bool{}
	var out []float64
	for _, w := range ws {
		m := NewGenerator(w, GeneratorParams{}).gaps.m
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// checkGap fails the test when the table's gap for x differs from the
// oracle's. It is not a helper (t.Helper costs more than the check).
func checkGap(t *testing.T, tab *gapTable, x uint64) {
	if got, want := tab.gap(x), log1pGap(tab.m, x); got != want {
		t.Fatalf("gap mean %v, draw %#x: table gives %d, Log1p gives %d", tab.m, x, got, want)
	}
}

// TestExpGapMatchesLog1p checks, for every distinct gap mean in the
// catalog, that the table gives the Log1p expression's gap for random
// draws, for every draw within 8 of a threshold, at both edges of every
// threshold's guard band, at both ends of the draw range and just past
// the table. The catalog's thresholds show no rounding disorder, so the
// band itself is pinned directly: no draw in a threshold's cell or a
// neighbouring one is answered from the table, and the first draw
// beyond is.
func TestExpGapMatchesLog1p(t *testing.T) {
	draws := 2_000_000
	if testing.Short() {
		draws = 200_000
	}
	for _, m := range catalogGapMeans() {
		tab := gapTableFor(m)
		thr := gapThresholds(m)
		if len(thr) < 2 || len(tab.cell) != len(thr) {
			t.Fatalf("gap mean %v: %d cells for %d thresholds", m, len(tab.cell), len(thr))
		}
		rng := splitmix{s: math.Float64bits(m)}
		for i := 0; i < draws; i++ {
			checkGap(t, tab, rng.next()>>11)
		}
		for k, th := range thr {
			if got := log1pGap(m, th); int(got) < k || k > 0 && int(log1pGap(m, th-1)) >= k {
				t.Fatalf("gap mean %v: draw %#x is not the first with gap %d", m, th, k)
			}
			for d := -8; d <= 8; d++ {
				x := th + uint64(d)
				if x > drawTop {
					continue
				}
				checkGap(t, tab, x)
				if _, ok := tab.lookup(x); ok {
					t.Fatalf("gap mean %v: draw %#x, %d from a threshold, answered inside the guard band", m, x, d)
				}
			}
			// The band's outer edges: the last draw before it, its first
			// and last draws, and the first draw after it.
			c := uint64(tab.cell[k])
			for _, x := range []uint64{(c-1)<<gapCellBits - 1, (c - 1) << gapCellBits, (c+2)<<gapCellBits - 1, (c + 2) << gapCellBits} {
				if c < 2 || x > drawTop {
					continue
				}
				checkGap(t, tab, x)
				if _, ok := tab.lookup(x); ok != outsideBands(tab, k, x) {
					t.Fatalf("gap mean %v: draw %#x at a band edge of threshold %d answered %v", m, x, k, ok)
				}
			}
		}
		last := thr[len(thr)-1]
		for _, x := range []uint64{0, drawTop, uint64(tab.tail)<<gapCellBits - 1, uint64(tab.tail) << gapCellBits, last, last + 1} {
			checkGap(t, tab, x)
		}
	}
}

// outsideBands reports whether x, a draw near threshold k, lies before
// the table's tail and outside the guard bands of thresholds k-1, k and
// k+1: the draws the table must answer.
func outsideBands(tab *gapTable, k int, x uint64) bool {
	c := int64(x >> gapCellBits)
	if c >= int64(tab.tail) {
		return false
	}
	for j := max(k-1, 0); j <= min(k+1, len(tab.cell)-1); j++ {
		if d := int64(tab.cell[j]) - c; d >= -1 && d <= 1 {
			return false
		}
	}
	return true
}

// FuzzExpGapMatchesLog1p checks one draw against the oracle for a fuzzed
// MPKI. Tables are built directly, not through the process-wide cache,
// so the fuzzer's many means do not accumulate.
func FuzzExpGapMatchesLog1p(f *testing.F) {
	f.Add(0.84, uint64(0))
	f.Add(107.81, uint64(drawTop))
	f.Add(0.3, uint64(1)<<52)
	f.Add(0.01, uint64(12345))
	tables := map[float64]*gapTable{}
	f.Fuzz(func(t *testing.T, mpki float64, x uint64) {
		// The generator floors MPKI at 0.01; above 1000 the mean is
		// below one gap and the table is nearly empty.
		if !(mpki >= 0.01 && mpki <= 1000) {
			t.Skip()
		}
		m := 1000 / mpki
		tab := tables[m]
		if tab == nil {
			if len(tables) > 64 {
				clear(tables)
			}
			tab = newGapTable(m)
			tables[m] = tab
		}
		x &= drawTop
		checkGap(t, tab, x)
		for _, d := range []uint64{1, 4, 1 << gapCellBits} {
			checkGap(t, tab, max(x, d)-d)
			checkGap(t, tab, min(x+d, drawTop))
		}
	})
}

// TestGapTableEdgeMeans builds tables for means far from the catalog's:
// below one gap (one or no thresholds), and above the threshold cap.
func TestGapTableEdgeMeans(t *testing.T) {
	for _, m := range []float64{0, 0.02, 0.5, 1, 1000 / 0.01} {
		tab := newGapTable(m)
		if m >= 1000/0.01 && len(tab.cell) != maxGapThresholds+1 {
			t.Fatalf("gap mean %v: %d thresholds, want the cap %d", m, len(tab.cell)-1, maxGapThresholds)
		}
		rng := splitmix{s: 1}
		for i := 0; i < 100_000; i++ {
			checkGap(t, tab, rng.next()>>11)
		}
		for _, x := range []uint64{0, 1, drawTop - 1, drawTop, uint64(tab.tail) << gapCellBits} {
			checkGap(t, tab, x)
		}
	}
}

// tableBytes is the memory a gap table holds.
func tableBytes(tab *gapTable) int {
	return 4*len(tab.cell) + 2*len(tab.start)
}

// TestGapTablesAllocBytes pins the gap tables' memory: the Table 3
// workloads' tables together stay under 1 MiB (they hold 0.87 MiB), a
// second generator with the same workload allocates no table, and
// generators built at once for a new workload share one table.
func TestGapTablesAllocBytes(t *testing.T) {
	seen := map[float64]bool{}
	total := 0
	for _, w := range Table3Workloads() {
		m := NewGenerator(w, GeneratorParams{}).gaps.m
		if !seen[m] {
			seen[m] = true
			total += tableBytes(newGapTable(m))
		}
	}
	t.Logf("Table 3's %d gap tables hold %d bytes", len(seen), total)
	if total >= 1<<20 {
		t.Fatalf("Table 3's %d gap tables hold %d bytes, want < 1 MiB", len(seen), total)
	}

	w, _ := ByName("hmmer")
	first := NewGenerator(w, GeneratorParams{})
	var second *Generator
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second = NewGenerator(w, GeneratorParams{})
	runtime.ReadMemStats(&after)
	if second.gaps != first.gaps {
		t.Fatal("a second hmmer generator built its own gap table")
	}
	// It allocates its 13 KiB of hot rows; the table holds six times that.
	if n, tab := int(after.TotalAlloc-before.TotalAlloc), tableBytes(first.gaps); n >= tab/4 {
		t.Fatalf("a second hmmer generator allocated %d bytes, want < %d (a quarter of its %d-byte gap table)", n, tab/4, tab)
	}

	// A mean no other test uses, so the first builder is one of these.
	fresh := Workload{Name: "fresh", FootprintBytes: 1 << 30, MPKI: 3.14159}
	gens := make([]*Generator, 8)
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gens[i] = NewGenerator(fresh, GeneratorParams{Seed: uint64(i)})
		}()
	}
	wg.Wait()
	for i, g := range gens {
		if g.gaps != gens[0].gaps {
			t.Fatalf("generator %d built at once with generator 0 has its own gap table", i)
		}
	}
}

func BenchmarkExpGap(b *testing.B) {
	for _, name := range []string{"hmmer", "mcf"} {
		w, _ := ByName(name)
		g := NewGenerator(w, GeneratorParams{Seed: 0xBE})
		b.Run(name, func(b *testing.B) {
			var sink uint32
			for i := 0; i < b.N; i++ {
				sink += g.expGap()
			}
			_ = sink
		})
	}
}

// BenchmarkExpGapLog1p is the expression the table replaces, over the
// same draws.
func BenchmarkExpGapLog1p(b *testing.B) {
	for _, name := range []string{"hmmer", "mcf"} {
		w, _ := ByName(name)
		g := NewGenerator(w, GeneratorParams{Seed: 0xBE})
		b.Run(name, func(b *testing.B) {
			var sink uint32
			for i := 0; i < b.N; i++ {
				sink += log1pGap(g.gaps.m, g.rng.next()>>11)
			}
			_ = sink
		})
	}
}
