package tracker

import (
	"testing"
	"testing/quick"

	"repro/internal/cat"
	"repro/internal/invariant"
	"repro/internal/prince"
)

// TestPropertyThresholdCrossingsAlwaysCaught is the tracker-level form of
// the paper's safety argument: with capacity = EntriesFor(W, T), every
// row whose true activation count reaches k*T within a W-activation
// window has been flagged by the tracker at or before the crossing, for
// both implementations and arbitrary streams.
//
// "Flagged" needs one refinement. Observe fires on estimate multiples of
// T, but an install sets the estimate straight to spill+1 — if that lands
// on (or past) a multiple of T, the crossing is silent: the caller sees
// the row enter the tracker with an estimate already at the swap line
// rather than a discrete trigger. The property therefore counts estimate
// crossings (fired or silent-at-install) and requires, at every moment a
// row's true count reaches k*T, that at least k crossings have been
// observed for it. Spurious events are rejected too: a fire without an
// estimate crossing, or a silent crossing outside an install, fails.
func TestPropertyThresholdCrossingsAlwaysCaught(t *testing.T) {
	const threshold = 5
	const window = 600
	capacity := EntriesFor(window, threshold)
	f := func(stream []uint16) bool {
		if len(stream) > window {
			stream = stream[:window]
		}
		for name, tr := range both(capacity, threshold) {
			truth := map[uint64]int64{}
			caught := map[uint64]int64{}
			for i, v := range stream {
				// Skew toward a small pool so counts actually climb.
				row := uint64(v % 37)
				if v%3 == 0 {
					row = uint64(v % 5)
				}
				est0 := int64(0)
				tracked0 := false
				if c, ok := tr.Count(row); ok {
					est0, tracked0 = c, true
				}
				fired := tr.Observe(row)
				truth[row]++
				var crossings int64
				if c, ok := tr.Count(row); ok {
					crossings = c/threshold - est0/threshold
				}
				if fired && crossings == 0 {
					t.Logf("%s: obs %d row %d fired without an estimate crossing", name, i, row)
					return false
				}
				if !fired && crossings > 0 && tracked0 {
					t.Logf("%s: obs %d row %d crossed silently on a hit", name, i, row)
					return false
				}
				caught[row] += crossings
				if truth[row]%threshold == 0 && caught[row] < truth[row]/threshold {
					t.Logf("%s: obs %d row %d reached %d true ACTs with %d crossing(s) caught",
						name, i, row, truth[row], caught[row])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyObserveCrossingMatchesCount checks Observe's trigger
// against separate lookups: an observation fires exactly when the row
// was tracked before it and its count moved across a multiple of the
// threshold. It covers both implementations, the shadow oracle around
// each, and a 2x2x2 CAT at full capacity, where installs keep finding
// both candidate sets full, so cuckoo relocations and dropped installs
// (CAT conflicts) both occur.
func TestPropertyObserveCrossingMatchesCount(t *testing.T) {
	var relocations, conflicts int
	for seed := uint64(1); seed <= 6; seed++ {
		eng := invariant.NewEngine()
		tiny := mustCAT(cat.Spec{Sets: 2, Ways: 2}, 8, 4, seed)
		trackers := map[string]Tracker{
			"cam":        mustCAM(8, 4),
			"cat":        mustCAT(cat.Spec{Sets: 4, Ways: 6}, 8, 4, seed),
			"cat-tiny":   tiny,
			"shadow-cam": NewShadow(mustCAM(8, 4), eng),
			"shadow-cat": NewShadow(mustCAT(cat.Spec{Sets: 2, Ways: 2}, 8, 4, seed+100), eng),
		}
		for name, tr := range trackers {
			rng := prince.Seeded(seed)
			for i := 0; i < 3000; i++ {
				row := uint64(rng.Intn(24))
				if i%500 == 499 {
					tr.Reset()
				}
				prev, tracked := tr.Count(row)
				fired := tr.Observe(row)
				cur, _ := tr.Count(row)
				if want := tracked && crossedMultiple(prev, cur, tr.Threshold()); fired != want {
					t.Fatalf("%s seed %d obs %d: Observe(%d) fired=%v at count %d (tracked=%v) -> %d, want %v",
						name, seed, i, row, fired, prev, tracked, cur, want)
				}
			}
		}
		if err := eng.Err(); err != nil {
			t.Fatalf("seed %d: shadow oracle flagged: %v", seed, err)
		}
		relocations += tiny.tab.Relocations()
		conflicts += tiny.tab.Conflicts() - tiny.tab.Relocations()
	}
	if relocations == 0 || conflicts == 0 {
		t.Fatalf("tiny CAT saw %d relocations and %d dropped installs; the test must cover both",
			relocations, conflicts)
	}
}
