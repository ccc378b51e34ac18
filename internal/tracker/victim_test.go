package tracker

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cat"
)

// linearVictim is the eviction choice of the full SetMin scan the
// at-minimum mask replaced: the global minimum over every set's exact
// minimum, rescanned from the table, then the first entry holding it in
// (table, set, way) order. ok is false when observing row would not
// evict: a hit, a free entry, or a minimum above the spill counter.
func linearVictim(c *CAT, row uint64) (victim uint64, ok bool) {
	if c.Contains(row) || c.tab.Len() < c.capacity {
		return 0, false
	}
	min := int64(math.MaxInt64)
	for ti := 0; ti < 2; ti++ {
		for s := range c.setMin[ti] {
			c.tab.ForEachInSet(ti, s, func(_ int, _ uint64, v *int64) bool {
				if *v < min {
					min = *v
				}
				return true
			})
		}
	}
	if min > c.spill {
		return 0, false
	}
	for ti := 0; ti < 2 && !ok; ti++ {
		for s := 0; s < len(c.setMin[ti]) && !ok; s++ {
			c.tab.ForEachInSet(ti, s, func(_ int, key uint64, v *int64) bool {
				if *v == min {
					victim, ok = key, true
					return false
				}
				return true
			})
		}
	}
	return victim, ok
}

// TestCATVictimSequenceMatchesLinearScan pins the eviction order over a
// long seeded miss stream: every victim the mask-guided search picks is
// the one the linear scan would. The shadow oracle cannot see this — it
// accepts any victim at the minimum count. The geometries cover the
// paper's 2x64 sets (one mask word per table) and 2x100 sets (a partial
// second word); the stream mixes single and bulk observations and
// resets the tracker once.
func TestCATVictimSequenceMatchesLinearScan(t *testing.T) {
	cases := []struct {
		name     string
		spec     cat.Spec
		capacity int
		rows     int
	}{
		{"paper-2x64x20", cat.Spec{Sets: 64, Ways: 20}, 1700, 20000},
		{"2x100x8", cat.Spec{Sets: 100, Ways: 8}, 1200, 15000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCAT(tc.spec, tc.capacity, 64, 7)
			if err != nil {
				t.Fatal(err)
			}
			c.EnableEvictionLog()
			rng := rand.New(rand.NewSource(11))
			zipf := rand.NewZipf(rng, 1.1, 4, uint64(tc.rows-1))
			const steps = 100_000
			for i := 0; i < steps; i++ {
				if i == steps/2 {
					c.Reset()
				}
				row := zipf.Uint64()
				if rng.Intn(8) == 0 {
					if c.Contains(row) {
						c.ObserveN(row, int64(1+rng.Intn(5)))
						continue
					}
				}
				want, evicts := linearVictim(c, row)
				before := c.Evictions()
				c.Observe(row)
				switch n := c.Evictions() - before; {
				case !evicts && n != 0:
					t.Fatalf("step %d: evicted %d, the linear scan keeps every entry", i, c.LastEvicted())
				case evicts && n != 1:
					t.Fatalf("step %d: %d evictions, the linear scan evicts %d", i, n, want)
				case evicts && c.LastEvicted() != want:
					t.Fatalf("step %d: evicted %d, the linear scan picks %d", i, c.LastEvicted(), want)
				}
			}
			if c.Evictions() < 20_000 {
				t.Fatalf("stream caused only %d evictions; too few to pin the order", c.Evictions())
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
