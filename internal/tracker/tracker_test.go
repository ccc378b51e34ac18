package tracker

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cat"
	"repro/internal/invariant"
	"repro/internal/prince"
)

// mustCAM and mustCAT are constructor shims for tests whose parameters
// are valid by construction.
func mustCAM(capacity int, threshold int64) *CAM {
	c, err := NewCAM(capacity, threshold)
	if err != nil {
		panic(err)
	}
	return c
}

func mustCAT(spec cat.Spec, capacity int, threshold int64, seed uint64) *CAT {
	c, err := NewCAT(spec, capacity, threshold, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// both returns one instance of each implementation with identical
// parameters, for running the same scenario against both.
func both(capacity int, threshold int64) map[string]Tracker {
	spec := cat.Spec{Sets: 8, Ways: (capacity+15)/16 + 6}
	if spec.Slots() < capacity {
		spec.Ways = capacity/(2*spec.Sets) + 7
	}
	return map[string]Tracker{
		"cam": mustCAM(capacity, threshold),
		"cat": mustCAT(spec, capacity, threshold, 42),
	}
}

func TestEntriesFor(t *testing.T) {
	cases := []struct{ act, thr, want int }{
		{1360000, 800, 1700}, // the paper's sizing
		{1360000, 960, 1417},
		{1360000, 685, 1986},
		{100, 10, 10},
		{101, 10, 11},
		{5, 10, 1},
	}
	for _, c := range cases {
		if got := EntriesFor(c.act, c.thr); got != c.want {
			t.Errorf("EntriesFor(%d, %d) = %d, want %d", c.act, c.thr, got, c.want)
		}
	}
}

func TestEntriesForPanicsOnZeroThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EntriesFor(100, 0)
}

// TestMisraGriesPaperFigure3 replays the worked example from Figure 3 of
// the paper: a 3-entry tracker holding {A:6, X:3, Z:9} with spill = 2.
func TestMisraGriesPaperFigure3(t *testing.T) {
	for name, tr := range both(3, 1000) {
		t.Run(name, func(t *testing.T) {
			const a, x, z, bRow, cRow = 1, 2, 3, 4, 5
			// Build the initial state: counts A=6, X=3, Z=9, spill=2.
			// Fill the table (counts start at spill+1 = 1).
			for i := 0; i < 6; i++ {
				tr.Observe(a)
			}
			for i := 0; i < 3; i++ {
				tr.Observe(x)
			}
			for i := 0; i < 9; i++ {
				tr.Observe(z)
			}
			// Two misses on rows that won't be installed (min=3 > spill=0,1).
			tr.Observe(100)
			tr.Observe(101)
			if got := tr.Spill(); got != 2 {
				t.Fatalf("setup: spill = %d, want 2", got)
			}
			if cnt, _ := tr.Count(a); cnt != 6 {
				t.Fatalf("setup: count(A) = %d, want 6", cnt)
			}

			// Step 1: Row-A arrives (hit) -> count 6 -> 7.
			tr.Observe(a)
			if cnt, _ := tr.Count(a); cnt != 7 {
				t.Fatalf("after A: count = %d, want 7", cnt)
			}

			// Step 2: Row-B arrives (miss). min count (3) > spill (2):
			// only the spill counter increments; B is not installed.
			tr.Observe(bRow)
			if tr.Contains(bRow) {
				t.Fatal("B must not be installed while min > spill")
			}
			if got := tr.Spill(); got != 3 {
				t.Fatalf("after B: spill = %d, want 3", got)
			}

			// Step 3: Row-C arrives (miss). min count (3) == spill (3):
			// the min entry (X) is replaced by C with count spill+1 = 4.
			tr.Observe(cRow)
			if !tr.Contains(cRow) {
				t.Fatal("C must be installed when min == spill")
			}
			if tr.Contains(x) {
				t.Fatal("X (the minimum entry) must be evicted")
			}
			if cnt, _ := tr.Count(cRow); cnt != 4 {
				t.Fatalf("count(C) = %d, want spill+1 = 4", cnt)
			}
			if cnt, _ := tr.Count(z); cnt != 9 {
				t.Fatalf("count(Z) = %d, want 9 (untouched)", cnt)
			}
		})
	}
}

func TestThresholdTriggerOnExactMultiple(t *testing.T) {
	for name, tr := range both(8, 5) {
		t.Run(name, func(t *testing.T) {
			fired := 0
			for i := 1; i <= 15; i++ {
				if tr.Observe(7) {
					fired++
					if cnt, _ := tr.Count(7); cnt%5 != 0 {
						t.Fatalf("fired at count %d, not a multiple of 5", cnt)
					}
				}
			}
			if fired != 3 {
				t.Fatalf("fired %d times over 15 ACTs at T=5, want 3", fired)
			}
		})
	}
}

// TestMisraGriesGuarantee is the paper's Invariant 1: with N = ceil(W/T)
// entries, no row reaches a multiple of T true activations without the
// tracker having fired for it at or before that activation.
func TestMisraGriesGuarantee(t *testing.T) {
	const threshold = 8
	const window = 512
	capacity := EntriesFor(window, threshold)
	for name, tr := range both(capacity, threshold) {
		t.Run(name, func(t *testing.T) {
			rng := prince.Seeded(7)
			truth := map[uint64]int64{}
			fired := map[uint64]int64{} // row -> number of trigger events
			for i := 0; i < window; i++ {
				// Skewed stream: a few hot rows within a larger pool.
				var row uint64
				if rng.Intn(2) == 0 {
					row = uint64(rng.Intn(4))
				} else {
					row = uint64(4 + rng.Intn(60))
				}
				truth[row]++
				if tr.Observe(row) {
					fired[row]++
				}
				if truth[row]%threshold == 0 {
					if fired[row] < truth[row]/threshold {
						t.Fatalf("row %d reached %d true ACTs with only %d trigger(s)",
							row, truth[row], fired[row])
					}
				}
			}
		})
	}
}

// TestCountOverestimates checks the Misra-Gries bound: the estimated count
// never underestimates the true count of a tracked row.
func TestCountOverestimates(t *testing.T) {
	const threshold = 10
	const window = 400
	capacity := EntriesFor(window, threshold)
	for name, tr := range both(capacity, threshold) {
		t.Run(name, func(t *testing.T) {
			rng := prince.Seeded(99)
			truth := map[uint64]int64{}
			for i := 0; i < window; i++ {
				row := uint64(rng.Intn(50))
				truth[row]++
				tr.Observe(row)
				if est, ok := tr.Count(row); ok && est < truth[row] {
					t.Fatalf("row %d: estimate %d < true %d", row, est, truth[row])
				}
			}
		})
	}
}

func TestResetClearsState(t *testing.T) {
	for name, tr := range both(4, 3) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				tr.Observe(uint64(i % 6))
			}
			tr.Reset()
			if tr.Len() != 0 {
				t.Fatalf("Len after reset = %d", tr.Len())
			}
			if tr.Spill() != 0 {
				t.Fatalf("Spill after reset = %d", tr.Spill())
			}
			if tr.Contains(0) {
				t.Fatal("row still tracked after reset")
			}
			// Tracker must work normally after reset.
			for i := int64(1); i <= 3; i++ {
				got := tr.Observe(42)
				if want := i == 3; got != want {
					t.Fatalf("obs %d after reset: fired=%v want %v", i, got, want)
				}
			}
		})
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	for name, tr := range both(8, 100) {
		t.Run(name, func(t *testing.T) {
			rng := prince.Seeded(3)
			for i := 0; i < 2000; i++ {
				tr.Observe(uint64(rng.Intn(500)))
				if tr.Len() > tr.Capacity() {
					t.Fatalf("Len %d exceeds capacity %d", tr.Len(), tr.Capacity())
				}
			}
		})
	}
}

func TestContainsMatchesCount(t *testing.T) {
	for name, tr := range both(8, 100) {
		t.Run(name, func(t *testing.T) {
			rng := prince.Seeded(5)
			for i := 0; i < 500; i++ {
				row := uint64(rng.Intn(40))
				tr.Observe(row)
				_, ok := tr.Count(row)
				if ok != tr.Contains(row) {
					t.Fatalf("Contains and Count disagree for row %d", row)
				}
			}
		})
	}
}

// TestPropertyBothImplementationsSameSpill: both implementations follow
// the same Misra-Gries counter discipline, so the spill counter — which
// depends only on the multiset of counts, not on which minimum entry gets
// replaced — must evolve identically for any stream.
func TestPropertyBothImplementationsSameSpill(t *testing.T) {
	f := func(stream []byte) bool {
		cam := mustCAM(6, 50)
		cct := mustCAT(cat.Spec{Sets: 4, Ways: 8}, 6, 50, 9)
		for _, b := range stream {
			row := uint64(b % 23)
			cam.Observe(row)
			cct.Observe(row)
			if cam.Spill() != cct.Spill() || cam.Len() != cct.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCAMDeterministicEviction: two CAM instances fed the same
// eviction-heavy stream must hold identical state — same tracked set,
// same counts, same spill. The previous map-backed implementation chose
// eviction victims by Go map iteration order, which is randomized per
// map instance, so two replays of one stream could diverge.
func TestCAMDeterministicEviction(t *testing.T) {
	a := mustCAM(8, 50)
	b := mustCAM(8, 50)
	rng := prince.Seeded(17)
	// Many ties at the minimum count: small row pool, capacity 8, so
	// evictions constantly choose among several minimum entries.
	for i := 0; i < 5000; i++ {
		row := uint64(rng.Intn(64))
		fa := a.Observe(row)
		fb := b.Observe(row)
		if fa != fb {
			t.Fatalf("obs %d row %d: trigger mismatch (%v vs %v)", i, row, fa, fb)
		}
	}
	if a.Spill() != b.Spill() || a.Len() != b.Len() {
		t.Fatalf("state diverged: spill %d/%d len %d/%d",
			a.Spill(), b.Spill(), a.Len(), b.Len())
	}
	for row := uint64(0); row < 64; row++ {
		ca, oka := a.Count(row)
		cb, okb := b.Count(row)
		if oka != okb || ca != cb {
			t.Fatalf("row %d: count (%d,%v) vs (%d,%v)", row, ca, oka, cb, okb)
		}
	}
}

// TestCAMMatchesReferenceModel drives the CAM against a brute-force
// Misra-Gries model (linear scans, lowest-install-order victim among
// minimum entries is not required — only count/spill/membership-size
// equivalence, which is victim-independent) and additionally checks the
// cached-minimum bookkeeping via the exported observers.
func TestCAMMatchesReferenceModel(t *testing.T) {
	const capacity, threshold = 6, 9
	c := mustCAM(capacity, threshold)
	model := map[uint64]int64{}
	var spill int64
	rng := prince.Seeded(23)
	for i := 0; i < 4000; i++ {
		row := uint64(rng.Intn(40))
		fired := c.Observe(row)
		if cnt, ok := model[row]; ok {
			model[row] = cnt + 1
			if want := crossedMultiple(cnt, cnt+1, threshold); fired != want {
				t.Fatalf("obs %d row %d: fired=%v want %v", i, row, fired, want)
			}
		} else if len(model) < capacity {
			model[row] = spill + 1
		} else {
			min := int64(math.MaxInt64)
			for _, v := range model {
				if v < min {
					min = v
				}
			}
			if min > spill {
				spill++
			} else {
				// Evict one minimum entry; which one is
				// implementation-defined, so mirror the CAM's choice.
				var victim uint64
				found := false
				for r, v := range model {
					if v == min && !c.Contains(r) {
						victim, found = r, true
						break
					}
				}
				if !found {
					t.Fatalf("obs %d: CAM evicted no minimum entry", i)
				}
				delete(model, victim)
				model[row] = spill + 1
			}
		}
		if c.Spill() != spill || c.Len() != len(model) {
			t.Fatalf("obs %d: spill %d want %d, len %d want %d",
				i, c.Spill(), spill, c.Len(), len(model))
		}
		for r, v := range model {
			if got, ok := c.Count(r); !ok || got != v {
				t.Fatalf("obs %d row %d: count (%d,%v) want %d", i, r, got, ok, v)
			}
		}
	}
}

func TestNewCATRejectsTooSmallGeometry(t *testing.T) {
	if _, err := NewCAT(cat.Spec{Sets: 1, Ways: 2}, 100, 10, 1); !errors.Is(err, invariant.ErrBadGeometry) {
		t.Fatalf("err = %v, want ErrBadGeometry", err)
	}
}

func TestNewCAMRejectsBadParams(t *testing.T) {
	if _, err := NewCAM(0, 10); !errors.Is(err, invariant.ErrBadGeometry) {
		t.Fatalf("capacity 0: err = %v, want ErrBadGeometry", err)
	}
	if _, err := NewCAM(4, 0); !errors.Is(err, invariant.ErrBadGeometry) {
		t.Fatalf("threshold 0: err = %v, want ErrBadGeometry", err)
	}
}

func TestPaperScaleTrackerHandlesFullEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("full-epoch tracker stress skipped in -short")
	}
	// The paper's geometry: 1700 entries, T = 800, 2x64 sets x 20 ways.
	tr := mustCAT(cat.Spec{Sets: 64, Ways: 20}, 1700, 800, 11)
	rng := prince.Seeded(1)
	swaps := 0
	// 200K activations: 100 hot rows get ~50% of traffic.
	truth := map[uint64]int64{}
	for i := 0; i < 200000; i++ {
		var row uint64
		if rng.Intn(2) == 0 {
			row = uint64(rng.Intn(100))
		} else {
			row = uint64(rng.Intn(128 << 10))
		}
		truth[row]++
		if tr.Observe(row) {
			swaps++
		}
	}
	if swaps == 0 {
		t.Fatal("no swaps triggered by hot rows")
	}
	// Every row with >= 800 true activations must have triggered.
	for row, cnt := range truth {
		if cnt >= 800 {
			if est, ok := tr.Count(row); !ok || est < cnt {
				t.Fatalf("hot row %d (true %d) untracked or underestimated (%d, %v)",
					row, cnt, est, ok)
			}
		}
	}
}

func BenchmarkCAMObserve(b *testing.B) {
	tr := mustCAM(1700, 800)
	rng := prince.Seeded(1)
	rows := make([]uint64, 4096)
	for i := range rows {
		rows[i] = uint64(rng.Intn(128 << 10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(rows[i%len(rows)])
	}
}

func BenchmarkCATObserve(b *testing.B) {
	tr := mustCAT(cat.Spec{Sets: 64, Ways: 20}, 1700, 800, 1)
	rng := prince.Seeded(1)
	rows := make([]uint64, 4096)
	for i := range rows {
		rows[i] = uint64(rng.Intn(128 << 10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(rows[i%len(rows)])
	}
}

// TestCATEvictionsAgreeWithShadow runs the paper-geometry tracker under
// the differential oracle on an mcf-like stream — mostly rows seen once,
// a few hot ones — so nearly every miss evicts through findMinEntry and
// DeleteAt. The oracle checks that every reported victim held the
// minimum count and that counts, spill and membership stay in step.
func TestCATEvictionsAgreeWithShadow(t *testing.T) {
	eng := invariant.NewEngine()
	inner := mustCAT(cat.Spec{Sets: 64, Ways: 20}, 1700, 800, 3)
	sh := NewShadow(inner, eng)
	rng := prince.Seeded(8)
	for i := 0; i < 100000; i++ {
		row := uint64(rng.Intn(1 << 17))
		if rng.Intn(8) == 0 {
			row = uint64(rng.Intn(64))
		}
		sh.Observe(row)
		if err := eng.Err(); err != nil {
			t.Fatalf("observation %d (row %d): %v", i, row, err)
		}
	}
	if err := sh.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := inner.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ev := inner.Evictions(); ev < 50000 {
		t.Fatalf("only %d evictions; the stream does not exercise the eviction path", ev)
	}
}

// BenchmarkObserveEvict is the tracker's miss path under an mcf-like
// stream: a full paper-geometry CAT tracker fed rows it has not seen, so
// nearly every Observe evicts the minimum entry and installs the row.
func BenchmarkObserveEvict(b *testing.B) {
	tr := mustCAT(cat.Spec{Sets: 64, Ways: 20}, 1700, 800, 1)
	rng := prince.Seeded(1)
	rows := make([]uint64, 1<<16)
	for i := range rows {
		rows[i] = uint64(rng.Intn(1 << 22))
	}
	for _, r := range rows[:1700] {
		tr.Observe(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(rows[i%len(rows)])
	}
}
