package cat

import (
	"math/bits"

	"repro/internal/invariant"
)

// CheckInvariants verifies the table's structural invariants and returns
// a typed *invariant.Violation describing the first mismatch:
//
//   - cat/occupancy: per-set invalid-way counters equal the number of
//     invalid slots in that set, and no key is stored twice.
//   - cat/placement: every valid slot's key hashes to the set holding it
//     (recomputed from the raw hashes, bypassing the memo).
//   - cat/size: the size counter equals the number of valid slots.
//   - cat/memo: every populated set-index memo entry agrees with a fresh
//     evaluation of both hash functions and sits in the memo slot its
//     key's low bits select.
//   - cat/presence: the miss-path bitset and large-key counter agree
//     exactly with table membership (see CheckPresence).
//
// Cost is O(slots + memo); the paranoid engine runs it on a cadence.
func (t *Table[V]) CheckInvariants() error {
	seen := make(map[uint64]struct{}, t.size)
	total := 0
	for ti := 0; ti < 2; ti++ {
		for s := 0; s < t.spec.Sets; s++ {
			valid := 0
			ss := t.setSlots(ti, s)
			for i := range ss {
				if !ss[i].valid {
					continue
				}
				valid++
				key := ss[i].key
				if _, dup := seen[key]; dup {
					return invariant.Violatedf("cat/occupancy",
						"key %#x stored in more than one slot", key)
				}
				seen[key] = struct{}{}
				if want := t.setIndex(ti, key); want != s {
					return invariant.Violatedf("cat/placement",
						"key %#x sits in table %d set %d but hashes to set %d",
						key, ti, s, want)
				}
			}
			if inv := t.invalid[ti][s]; inv != t.spec.Ways-valid {
				return invariant.Violatedf("cat/occupancy",
					"table %d set %d: invalid-way counter %d, actual invalid ways %d",
					ti, s, inv, t.spec.Ways-valid)
			}
			total += valid
		}
	}
	if total != t.size {
		return invariant.Violatedf("cat/size",
			"size counter %d, valid slots %d", t.size, total)
	}
	for i := range t.idxCache {
		e := &t.idxCache[i]
		if e.s0p1 == 0 {
			continue
		}
		if int(e.key&(1<<idxCacheBits-1)) != i {
			return invariant.Violatedf("cat/memo",
				"memo slot %d holds key %#x whose low bits select slot %d",
				i, e.key, e.key&(1<<idxCacheBits-1))
		}
		s0, s1 := t.setIndex(0, e.key), t.setIndex(1, e.key)
		if int(e.s0p1-1) != s0 || int(e.s1) != s1 {
			return invariant.Violatedf("cat/memo",
				"memo for key %#x caches sets (%d,%d), hashes give (%d,%d)",
				e.key, e.s0p1-1, e.s1, s0, s1)
		}
	}
	return t.CheckPresence()
}

// CheckPresence verifies the cat/presence invariant alone: every stored
// key under the bitset bound has its bit set, the large-key counter equals
// the number of stored keys over the bound, and no other bit is set. It
// costs O(slots + bitset words) and hashes nothing, so owners that do not
// run the full CheckInvariants sweep can still check the miss path.
func (t *Table[V]) CheckPresence() error {
	big, valid := 0, 0
	for ti := 0; ti < 2; ti++ {
		for i := range t.slots[ti] {
			sl := &t.slots[ti][i]
			if !sl.valid {
				continue
			}
			valid++
			if sl.key >= maxBitsetKeys {
				big++
				continue
			}
			if w := sl.key >> 6; w >= uint64(len(t.present)) || t.present[w]&(1<<(sl.key&63)) == 0 {
				return invariant.Violatedf("cat/presence",
					"key %#x is stored but its presence bit is clear", sl.key)
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

// CorruptMemoForTest overwrites the set-index memo entry for key with the
// given candidate sets, reporting whether key was cached.
func (t *Table[V]) CorruptMemoForTest(key uint64, s0, s1 int32) bool {
	if t.idxCache == nil {
		return false
	}
	e := &t.idxCache[key&(1<<idxCacheBits-1)]
	if e.s0p1 == 0 || e.key != key {
		return false
	}
	e.s0p1, e.s1 = s0+1, s1
	return true
}

// CorruptInvalidCountForTest skews one set's invalid-way counter.
func (t *Table[V]) CorruptInvalidCountForTest(ti, s, delta int) {
	t.invalid[ti][s] += delta
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
// without touching the set-index memo or moving the slot, reporting
// whether oldKey was present. The presence bitset follows the rewrite, so
// the corruption shows as a misplaced key, not as a presence mismatch.
func (t *Table[V]) CorruptKeyForTest(oldKey, newKey uint64) bool {
	for ti := 0; ti < 2; ti++ {
		for i := range t.slots[ti] {
			if t.slots[ti][i].valid && t.slots[ti][i].key == oldKey {
				t.slots[ti][i].key = newKey
				t.markPresent(oldKey, false)
				t.markPresent(newKey, true)
				return true
			}
		}
	}
	return false
}

// DropEntryForTest clears the valid bit of key's slot without updating
// the invalid-way counter or size, reporting whether key was present.
func (t *Table[V]) DropEntryForTest(key uint64) bool {
	for ti := 0; ti < 2; ti++ {
		for i := range t.slots[ti] {
			if t.slots[ti][i].valid && t.slots[ti][i].key == key {
				t.slots[ti][i].valid = false
				return true
			}
		}
	}
	return false
}
