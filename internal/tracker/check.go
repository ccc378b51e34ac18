package tracker

import (
	"math"

	"repro/internal/invariant"
)

// SelfChecker is implemented by trackers that can verify their own
// structural invariants (both CAM and CAT do). The paranoid engine
// type-asserts Tracker values against it.
type SelfChecker interface {
	CheckInvariants() error
}

var (
	_ SelfChecker = (*CAM)(nil)
	_ SelfChecker = (*CAT)(nil)
)

// CheckInvariants verifies the CAT tracker's redundant state against the
// table and returns a typed *invariant.Violation for the first breach:
//
//   - tracker/setmin: every SetMin counter equals the exact minimum of
//     its set (MaxInt64 when empty). When the at-minimum mask is
//     nonempty, the cached global minimum is exact and the mask names
//     exactly the sets at it; when empty, the cached value is stale and
//     must sit below every set's minimum. No mask bit lies past the
//     last set.
//   - tracker/relocs: the memoized relocation counter matches the table's.
//   - tracker/spill: no tracked count is below the spill counter (the
//     Misra-Gries lower bound: estimates start at spill+1 and the spill
//     counter only advances past the minimum).
//   - tracker/count: entry count within capacity.
//
// It also runs the underlying cat.Table's own structural checks, so a
// paranoid run covers CAT occupancy/placement/size/presence through the
// tracker.
func (t *CAT) CheckInvariants() error {
	if err := t.tab.CheckInvariants(); err != nil {
		return err
	}
	gmin := int64(math.MaxInt64)
	for ti := 0; ti < 2; ti++ {
		for s := range t.setMin[ti] {
			min := t.scanSetMin(ti, s)
			if t.setMin[ti][s] != min {
				return invariant.Violatedf("tracker/setmin",
					"SetMin[%d][%d] = %d, exact set minimum is %d", ti, s, t.setMin[ti][s], min)
			}
			if min < gmin {
				gmin = min
			}
		}
	}
	if t.minStale() {
		if t.gmin >= gmin {
			return invariant.Violatedf("tracker/setmin",
				"at-minimum mask empty, but cached global minimum %d is not below the exact minimum %d", t.gmin, gmin)
		}
	} else {
		if t.gmin != gmin {
			return invariant.Violatedf("tracker/setmin",
				"cached global minimum %d marked current, exact minimum is %d", t.gmin, gmin)
		}
		for ti := 0; ti < 2; ti++ {
			for s, m := range t.setMin[ti] {
				if inMask := t.atMin[ti][s>>6]&(1<<(s&63)) != 0; inMask != (m == gmin) {
					return invariant.Violatedf("tracker/setmin",
						"at-minimum mask bit [%d][%d] is %v, but SetMin %d vs global minimum %d", ti, s, inMask, m, gmin)
				}
			}
		}
	}
	for ti := 0; ti < 2; ti++ {
		if tail := len(t.setMin[ti]) & 63; tail != 0 && t.atMin[ti][len(t.atMin[ti])-1]>>tail != 0 {
			return invariant.Violatedf("tracker/setmin",
				"at-minimum mask of table %d has bits past its %d sets", ti, len(t.setMin[ti]))
		}
	}
	if t.relocs != t.tab.Relocations() {
		return invariant.Violatedf("tracker/relocs",
			"memoized relocation counter %d, table reports %d", t.relocs, t.tab.Relocations())
	}
	if t.tab.Len() > 0 && gmin < t.spill {
		return invariant.Violatedf("tracker/spill",
			"minimum tracked count %d is below the spill counter %d", gmin, t.spill)
	}
	if t.tab.Len() > t.capacity {
		return invariant.Violatedf("tracker/count",
			"%d entries exceed capacity %d", t.tab.Len(), t.capacity)
	}
	return nil
}

// CheckInvariants verifies the CAM tracker's redundant state and returns
// a typed *invariant.Violation for the first breach:
//
//   - tracker/index: every live slot is reachable through the
//     open-addressed index, no row appears twice, and the index holds
//     exactly size live pointers (none to dead slots or stale rows).
//   - tracker/min: the cached minimum value and its population count
//     match an exact scan of the live counters.
//   - tracker/spill: no live count is below the spill counter.
//   - tracker/count: size within capacity.
func (c *CAM) CheckInvariants() error {
	if c.size < 0 || c.size > c.capacity {
		return invariant.Violatedf("tracker/count",
			"size %d outside [0, %d]", c.size, c.capacity)
	}
	seen := make(map[uint64]int, c.size)
	for s := 0; s < c.size; s++ {
		row := c.rows[s]
		if prev, dup := seen[row]; dup {
			return invariant.Violatedf("tracker/index",
				"row %d stored in slots %d and %d", row, prev, s)
		}
		seen[row] = s
		if got := c.lookup(row); got != s {
			return invariant.Violatedf("tracker/index",
				"slot %d holds row %d but the index resolves it to slot %d", s, row, got)
		}
	}
	live := 0
	for _, s := range c.idx {
		if s == 0 {
			continue
		}
		live++
		if int(s-1) >= c.size {
			return invariant.Violatedf("tracker/index",
				"index points at dead slot %d (size %d)", s-1, c.size)
		}
	}
	if live != c.size {
		return invariant.Violatedf("tracker/index",
			"index holds %d pointers for %d live slots", live, c.size)
	}
	if c.size > 0 {
		min := c.cnts[0]
		n := 1
		for i := 1; i < c.size; i++ {
			switch v := c.cnts[i]; {
			case v < min:
				min, n = v, 1
			case v == min:
				n++
			}
		}
		if c.minVal != min || c.minCount != n {
			return invariant.Violatedf("tracker/min",
				"cached minimum %d (x%d), exact scan gives %d (x%d)", c.minVal, c.minCount, min, n)
		}
		if min < c.spill {
			return invariant.Violatedf("tracker/spill",
				"minimum tracked count %d is below the spill counter %d", min, c.spill)
		}
	}
	return nil
}

// --- Test-only state corruption hooks ---
//
// Narrow mutators for the fault-injection suite; never called by
// production code.

// CorruptCountForTest adds delta to row's counter without maintaining the
// SetMin counters, reporting whether row is tracked.
func (t *CAT) CorruptCountForTest(row uint64, delta int64) bool {
	p := t.tab.Lookup(row)
	if p == nil {
		return false
	}
	*p += delta
	return true
}

// CorruptSetMinForTest skews one SetMin counter.
func (t *CAT) CorruptSetMinForTest(ti, s int, delta int64) { t.setMin[ti][s] += delta }

// CorruptGminForTest overwrites the cached global minimum after
// refreshing a stale one, so the mask marks the wrong value current.
func (t *CAT) CorruptGminForTest(v int64) {
	t.globalMin()
	t.gmin = v
}

// CorruptAtMinForTest flips set s's bit in table ti's at-minimum mask.
func (t *CAT) CorruptAtMinForTest(ti, s int) { t.atMin[ti][s>>6] ^= 1 << (s & 63) }

// CorruptRelocsForTest skews the memoized relocation counter.
func (t *CAT) CorruptRelocsForTest(delta int) { t.relocs += delta }

// CorruptSpillForTest skews the spill counter.
func (t *CAT) CorruptSpillForTest(delta int64) { t.spill += delta }

// CorruptPresenceForTest flips row's presence bit in the table (rows
// under the bitset bound only).
func (t *CAT) CorruptPresenceForTest(row uint64) { t.tab.CorruptPresenceForTest(row) }

// CorruptBigRowsForTest skews the table's large-key counter.
func (t *CAT) CorruptBigRowsForTest(delta int) { t.tab.CorruptBigKeysForTest(delta) }

// TableForTest exposes the underlying CAT so the fault-injection suite
// can corrupt table-level state (occupancy masks, invalid-way counters)
// through a realistic owner.
func (t *CAT) TableForTest() interface {
	CorruptMaskForTest(ti, s, way int)
	CorruptInvalidCountForTest(ti, s, delta int)
	CorruptSizeForTest(delta int)
	CorruptKeyForTest(oldKey, newKey uint64) bool
	DropEntryForTest(key uint64) bool
} {
	return t.tab
}

// CorruptCountForTest adds delta to row's counter without maintaining the
// cached minimum, reporting whether row is tracked.
func (c *CAM) CorruptCountForTest(row uint64, delta int64) bool {
	s := c.lookup(row)
	if s < 0 {
		return false
	}
	c.cnts[s] += delta
	return true
}

// CorruptEvictionLogForTest makes the eviction log report row as the
// victim of every subsequent eviction regardless of the entry actually
// displaced, for fault-injection tests of the differential oracle's
// eviction protocol.
func (c *CAM) CorruptEvictionLogForTest(row uint64) {
	c.evictLie = true
	c.evictLieRow = row
}

// CorruptRowForTest rewrites the row id stored in oldRow's slot without
// fixing the index, reporting whether oldRow was tracked.
func (c *CAM) CorruptRowForTest(oldRow, newRow uint64) bool {
	s := c.lookup(oldRow)
	if s < 0 {
		return false
	}
	c.rows[s] = newRow
	return true
}

// CorruptMinValForTest skews the cached minimum value.
func (c *CAM) CorruptMinValForTest(delta int64) { c.minVal += delta }

// CorruptMinCountForTest skews the cached minimum population count.
func (c *CAM) CorruptMinCountForTest(delta int) { c.minCount += delta }

// CorruptSpillForTest skews the spill counter.
func (c *CAM) CorruptSpillForTest(delta int64) { c.spill += delta }
