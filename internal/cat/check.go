package cat

import (
	"math/bits"

	"repro/internal/invariant"
)

// CheckInvariants verifies the table's structural invariants and returns
// a typed *invariant.Violation describing the first mismatch:
//
//   - cat/occupancy: each set's occupancy mask has no bit at or above
//     Ways and marks no way of a set that has no slot storage, its
//     invalid-way counter equals Ways minus the mask's population count,
//     and no key is stored twice.
//   - cat/placement: every occupied slot's key hashes to the set holding
//     it (recomputed from each table's own hash).
//   - cat/size: the size counter equals the number of occupied slots.
//   - cat/presence: the miss-path bitset and large-key counter agree
//     exactly with table membership (see checkPresence).
//
// Every set's occupancy is checked before any slot is read, so the key
// pass only indexes ways that exist. Cost is O(slots) and no allocation;
// the paranoid engine runs it on a cadence.
func (t *Table[V]) CheckInvariants() error {
	total := 0
	for ti := 0; ti < 2; ti++ {
		for s, st := range t.sets[ti] {
			if high := st.mask >> t.spec.Ways; high != 0 {
				return invariant.Violatedf("cat/occupancy",
					"table %d set %d: occupancy mask %#x marks ways at or above %d",
					ti, s, st.mask, t.spec.Ways)
			}
			if st.mask != 0 && t.slots[ti][s] == nil {
				return invariant.Violatedf("cat/occupancy",
					"table %d set %d: occupancy mask %#x marks ways of a set with no slot storage",
					ti, s, st.mask)
			}
			valid := bits.OnesCount64(st.mask)
			if st.invalid != t.spec.Ways-valid {
				return invariant.Violatedf("cat/occupancy",
					"table %d set %d: invalid-way counter %d, occupancy mask leaves %d ways free",
					ti, s, st.invalid, t.spec.Ways-valid)
			}
			total += valid
		}
	}
	for ti := 0; ti < 2; ti++ {
		for s, st := range t.sets[ti] {
			ss := t.slots[ti][s]
			for m := st.mask; m != 0; m &= m - 1 {
				key := ss[bits.TrailingZeros64(m)].key
				s0, s1 := t.setsOf(key)
				if want := [2]int{s0, s1}[ti]; want != s {
					return invariant.Violatedf("cat/placement",
						"key %#x sits in table %d set %d but hashes to set %d",
						key, ti, s, want)
				}
				// A correctly placed key can only be repeated in a later
				// way of its own set or, from table 0, in its table-1 set;
				// a repeat placed anywhere else fails cat/placement.
				dup := ti == 0 && t.find(1, s1, key) >= 0
				for rest := m & (m - 1); rest != 0 && !dup; rest &= rest - 1 {
					dup = ss[bits.TrailingZeros64(rest)].key == key
				}
				if dup {
					return invariant.Violatedf("cat/occupancy",
						"key %#x stored in more than one slot", key)
				}
			}
		}
	}
	if total != t.size {
		return invariant.Violatedf("cat/size",
			"size counter %d, valid slots %d", t.size, total)
	}
	return t.checkPresence()
}

// checkPresence verifies the cat/presence invariant: every stored key
// under the bitset bound has its bit set, the large-key counter equals
// the number of stored keys over the bound, and no other bit is set. It
// costs O(slots + bitset words) and hashes nothing. CheckInvariants runs
// it last, once every occupancy mask is known to mark only ways that
// have slots.
func (t *Table[V]) checkPresence() error {
	big, valid := 0, 0
	for ti := 0; ti < 2; ti++ {
		for s, st := range t.sets[ti] {
			ss := t.slots[ti][s]
			for m := st.mask; m != 0; m &= m - 1 {
				key := ss[bits.TrailingZeros64(m)].key
				valid++
				if key >= maxBitsetKeys {
					big++
					continue
				}
				if w := key >> 6; w >= uint64(len(t.present)) || t.present[w]&(1<<(key&63)) == 0 {
					return invariant.Violatedf("cat/presence",
						"key %#x is stored but its presence bit is clear", key)
				}
			}
		}
	}
	if big != t.bigKeys {
		return invariant.Violatedf("cat/presence",
			"large-key counter %d, stored keys over the bitset bound %d", t.bigKeys, big)
	}
	set := 0
	for _, w := range t.present {
		set += bits.OnesCount64(w)
	}
	if set != valid-big {
		return invariant.Violatedf("cat/presence",
			"%d presence bits set for %d stored keys under the bitset bound", set, valid-big)
	}
	return nil
}

// --- Test-only state corruption hooks ---
//
// The fault-injection suite (internal/invariant) uses these narrow
// mutators to flip bits in the table's redundant state and prove the
// checker detects every corruption class. They exist for tests only and
// must never be called by production code.

// CorruptInvalidCountForTest skews one set's invalid-way counter.
func (t *Table[V]) CorruptInvalidCountForTest(ti, s, delta int) {
	t.sets[ti][s].invalid += delta
}

// CorruptMaskForTest sets bit way (0..63, possibly at or above Ways) of
// one set's occupancy mask without touching its invalid-way counter. It
// gives a set without storage none, so the mark can name a way that has
// no slot at all.
func (t *Table[V]) CorruptMaskForTest(ti, s, way int) {
	t.sets[ti][s].mask |= 1 << way
}

// slotOf returns the table, set and way holding key, or ok == false if
// key is absent. It scans every occupied slot instead of hashing, so it
// finds keys a corruption has left in the wrong set.
func (t *Table[V]) slotOf(key uint64) (ti, s, way int, ok bool) {
	for ti = 0; ti < 2; ti++ {
		for s = range t.sets[ti] {
			t.ForEachInSet(ti, s, func(w int, k uint64, _ *V) bool {
				way, ok = w, k == key
				return !ok
			})
			if ok {
				return ti, s, way, true
			}
		}
	}
	return 0, 0, 0, false
}

// CorruptSizeForTest skews the size counter.
func (t *Table[V]) CorruptSizeForTest(delta int) { t.size += delta }

// CorruptPresenceForTest flips key's presence bit (keys under the bitset
// bound only).
func (t *Table[V]) CorruptPresenceForTest(key uint64) {
	if key < maxBitsetKeys {
		*t.presenceWord(key) ^= 1 << (key & 63)
	}
}

// CorruptBigKeysForTest skews the large-key counter.
func (t *Table[V]) CorruptBigKeysForTest(delta int) { t.bigKeys += delta }

// CorruptKeyForTest rewrites the stored key of oldKey's slot to newKey
// without moving the slot, reporting whether oldKey was present. The
// presence bitset follows the rewrite, so the corruption shows as a
// misplaced key, not as a presence mismatch.
func (t *Table[V]) CorruptKeyForTest(oldKey, newKey uint64) bool {
	ti, s, w, ok := t.slotOf(oldKey)
	if ok {
		t.slots[ti][s][w].key = newKey
		t.markPresent(oldKey, false)
		t.markPresent(newKey, true)
	}
	return ok
}

// DropEntryForTest clears the occupancy-mask bit of key's slot without
// updating the invalid-way counter or size, reporting whether key was
// present.
func (t *Table[V]) DropEntryForTest(key uint64) bool {
	ti, s, w, ok := t.slotOf(key)
	if ok {
		t.sets[ti][s].mask &^= 1 << w
	}
	return ok
}
