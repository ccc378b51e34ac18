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
				_, fired := tr.Observe(row)
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

// TestPropertyObserveReturnsCount checks Observe's fused count against a
// separate lookup: after every observation the returned count equals
// Count(row), or 0 when the row is left untracked. It covers both
// implementations, the shadow oracle around each, and a 2x2x2 CAT at
// full capacity, where installs keep finding both candidate sets full,
// so cuckoo relocations and dropped installs (CAT conflicts) both occur.
func TestPropertyObserveReturnsCount(t *testing.T) {
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
				got, _ := tr.Observe(row)
				want, _ := tr.Count(row)
				if got != want {
					t.Fatalf("%s seed %d obs %d: Observe(%d) returned count %d, Count says %d",
						name, seed, i, row, got, want)
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

// countLiar reports a count one too high for rows it leaves untracked.
type countLiar struct{ *CAM }

func (l countLiar) Observe(row uint64) (int64, bool) {
	c, crossed := l.CAM.Observe(row)
	if c == 0 {
		c = 1
	}
	return c, crossed
}

// TestShadowChecksReturnedCount shows the oracle compares Observe's
// returned count with its reference model, not only the tracker's state:
// a tracker whose state is right but whose spill-advance answer is not
// must be flagged.
func TestShadowChecksReturnedCount(t *testing.T) {
	eng := invariant.NewEngine()
	sh := NewShadow(countLiar{mustCAM(2, 5)}, eng)
	sh.Observe(1)
	sh.Observe(2)
	if err := eng.Err(); err != nil {
		t.Fatalf("installs flagged: %v", err)
	}
	// Full at counts 1, spill 0: the next miss advances the spill counter
	// and leaves row 3 untracked, so the liar answers 1 instead of 0.
	sh.Observe(3)
	if v := invariant.AsViolation(eng.Err()); v == nil || v.Invariant != "tracker/shadow" {
		t.Fatalf("lying count not flagged: %v", eng.Err())
	}
}
