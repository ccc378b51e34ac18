// Package cat implements the Collision Avoidance Table (CAT) from the RRS
// paper (Section 6): a two-table skewed-associative structure, indexed by
// two independent keyed hashes, with over-provisioned ways so that installs
// (almost) always find an invalid way in one of the two candidate sets.
//
// CAT is the storage substrate for both the scalable Misra-Gries tracker
// (HRT) and the Row Indirection Table (RIT). It offers set-associative
// lookup latency with conflict-free storage for a bounded number of items,
// avoiding the CAM used by Graphene's original tracker.
//
// The structure is inspired by MIRAGE (USENIX Security 2021): installs pick
// the candidate set with more invalid ways (power-of-two-choices load
// balancing), and if ever both sets are full a one-level cuckoo relocation
// is attempted, mirroring MIRAGE-Lite.
package cat

import (
	"fmt"
	"math/bits"

	"repro/internal/prince"
)

// Spec describes a CAT geometry. The paper's RIT uses 2 tables x 256 sets
// x 20 ways; the tracker uses 2 tables x 64 sets x 20 ways, in both cases
// 14 demand ways and 6 extra ways.
type Spec struct {
	// Sets is the number of sets per table (the structure has 2 tables).
	Sets int
	// Ways is the total ways per set (demand + extra), at most maxWays.
	Ways int
}

// maxWays bounds Ways so one uint64 occupancy mask covers a set.
const maxWays = 64

// Slots returns the total number of storage slots.
func (s Spec) Slots() int { return 2 * s.Sets * s.Ways }

// Validate reports an invalid geometry.
func (s Spec) Validate() error {
	if s.Sets <= 0 || s.Ways <= 0 || s.Ways > maxWays {
		return fmt.Errorf("cat: invalid geometry %d sets x %d ways (ways must be 1..%d)", s.Sets, s.Ways, maxWays)
	}
	return nil
}

type slot[V any] struct {
	key uint64
	val V
}

// setState is one set's occupancy: bit w of mask is set iff way w holds
// an entry, and invalid counts the free ways. The counter duplicates the
// mask's population count; it stays as redundant state that the
// cat/occupancy check compares against the mask.
type setState struct {
	mask    uint64
	invalid int
}

// maxBitsetKeys bounds the presence bitset at 512 KiB so adversarial
// 64-bit keys (fuzzers, tests) cannot balloon it.
const maxBitsetKeys = 1 << 22

// Table is a CAT holding values of type V keyed by 64-bit keys (row ids).
// The zero value is not usable; construct with New.
//
// Table is not safe for concurrent use.
type Table[V any] struct {
	spec Spec
	// slots holds, per table and per set, that set's Ways slots. A set's
	// slice stays nil until place first stores an entry there: a benign
	// run fills a few percent of a RIT sized for the worst-case ACT rate,
	// so most sets never need storage. Allocating one set never moves
	// another's, which keeps Lookup's pointer-validity rule. Only ways
	// the occupancy mask marks are read, so an empty set is never indexed.
	slots [2][][]slot[V]
	sets  [2][]setState // per table, per set: occupancy mask and counter
	hash  [2]*prince.Hash64
	size  int
	// present is an exact membership bitset over small keys: bit k is set
	// iff key k is stored. Both owners look up far more absent keys than
	// present ones (a few thousand RIT tuples or tracked rows against a
	// bank's rows), so a miss answers from one bit probe instead of two
	// set scans behind two keyed hashes. Keys >= maxBitsetKeys are only
	// counted in bigKeys and always take the set scan.
	present []uint64
	bigKeys int
	// conflicts counts installs that found both candidate sets full
	// (before cuckoo relocation).
	conflicts int
	// relocations counts successful cuckoo moves.
	relocations int
}

// New creates an empty CAT with the given geometry. The two set-index
// hashes are keyed low-latency ciphers derived from seed, so different
// seeds give independent skews.
func New[V any](spec Spec, seed uint64) *Table[V] {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	t := &Table[V]{spec: spec}
	for i := 0; i < 2; i++ {
		t.slots[i] = make([][]slot[V], spec.Sets)
		t.sets[i] = make([]setState, spec.Sets)
		for s := range t.sets[i] {
			t.sets[i][s].invalid = spec.Ways
		}
	}
	// Two independent keys derived from the seed.
	kg := prince.Seeded(seed)
	t.hash[0] = prince.NewHash64(kg.Next(), kg.Next())
	t.hash[1] = prince.NewHash64(kg.Next(), kg.Next())
	return t
}

// Spec returns the geometry.
func (t *Table[V]) Spec() Spec { return t.spec }

// Len returns the number of valid entries.
func (t *Table[V]) Len() int { return t.size }

// Conflicts returns how many installs found both candidate sets full.
func (t *Table[V]) Conflicts() int { return t.conflicts }

// Relocations returns how many installs were saved by cuckoo relocation.
func (t *Table[V]) Relocations() int { return t.relocations }

// setIndex returns the candidate set for key in table ti.
func (t *Table[V]) setIndex(ti int, key uint64) int {
	return int(t.hash[ti].Sum(key) % uint64(t.spec.Sets))
}

// setsOf returns both candidate set indices, from one interleaved pass
// over the two keyed hashes.
func (t *Table[V]) setsOf(key uint64) (int, int) {
	h0, h1 := prince.Sum2(t.hash[0], t.hash[1], key)
	n := uint64(t.spec.Sets)
	return int(h0 % n), int(h1 % n)
}

// mightContain is the bit-probe fast path: false means key is certainly
// absent; true means the sets must be scanned (and, for keys under the
// bitset bound, the scan is a guaranteed hit).
func (t *Table[V]) mightContain(key uint64) bool {
	if key < maxBitsetKeys {
		w := key >> 6
		return w < uint64(len(t.present)) && t.present[w]&(1<<(key&63)) != 0
	}
	return t.bigKeys > 0
}

// presenceWord returns the bitset word holding the bit of key (which must
// be under maxBitsetKeys), growing the bitset as needed.
func (t *Table[V]) presenceWord(key uint64) *uint64 {
	w := key >> 6
	if w >= uint64(len(t.present)) {
		// Grow to the next power of two of words covering w, so a bank's
		// power-of-two row count fills the bitset exactly.
		grown := make([]uint64, min(1<<bits.Len64(w), maxBitsetKeys/64))
		copy(grown, t.present)
		t.present = grown
	}
	return &t.present[w]
}

// markPresent records key's arrival (on) or departure in the bitset.
func (t *Table[V]) markPresent(key uint64, on bool) {
	switch {
	case key >= maxBitsetKeys && on:
		t.bigKeys++
	case key >= maxBitsetKeys:
		t.bigKeys--
	case on:
		*t.presenceWord(key) |= 1 << (key & 63)
	default:
		*t.presenceWord(key) &^= 1 << (key & 63)
	}
}

// find returns the way of set s in table ti holding key, or -1. It reads
// only the ways the occupancy mask marks as taken.
func (t *Table[V]) find(ti, s int, key uint64) int {
	ss := t.slots[ti][s]
	for m := t.sets[ti][s].mask; m != 0; m &= m - 1 {
		if w := bits.TrailingZeros64(m); ss[w].key == key {
			return w
		}
	}
	return -1
}

// Lookup returns a pointer to the value stored for key, or nil if absent.
// The pointer stays valid until the entry is deleted or relocated; callers
// must not retain it across Install or Delete calls.
func (t *Table[V]) Lookup(key uint64) *V {
	_, _, v := t.LookupPos(key)
	return v
}

// LookupPos is Lookup returning also the table index and set that hold
// the entry, so callers maintaining per-set metadata (the tracker's
// SetMin counters) can update exactly the affected set. val is nil when
// key is absent; ti and s are then meaningless.
func (t *Table[V]) LookupPos(key uint64) (ti, s int, val *V) {
	if !t.mightContain(key) {
		return 0, 0, nil
	}
	s0, s1 := t.setsOf(key)
	if w := t.find(0, s0, key); w >= 0 {
		return 0, s0, &t.slots[0][s0][w].val
	}
	if w := t.find(1, s1, key); w >= 0 {
		return 1, s1, &t.slots[1][s1][w].val
	}
	return 0, 0, nil
}

// Contains reports whether key is present.
func (t *Table[V]) Contains(key uint64) bool { return t.Lookup(key) != nil }

// Install inserts key with value val and returns a pointer to the stored
// value. It returns nil if both candidate sets are full and cuckoo
// relocation cannot free a way (a CAT conflict — with 6 extra ways the
// paper shows this takes ~1e30 installs). Installing a key that is already
// present is a caller bug and panics; the presence bitset keeps that check
// at one bit probe for keys under its bound.
func (t *Table[V]) Install(key uint64, val V) *V {
	_, _, vp := t.InstallPos(key, val)
	return vp
}

// InstallPos is Install returning also the table index and set the entry
// landed in (meaningless when val is nil, i.e. on a CAT conflict).
func (t *Table[V]) InstallPos(key uint64, val V) (ti, s int, vp *V) {
	if t.Lookup(key) != nil {
		panic(fmt.Sprintf("cat: duplicate install of key %#x", key))
	}
	s0, s1 := t.setsOf(key)
	ti, s = t.roomier(s0, s1)
	if t.sets[ti][s].invalid == 0 {
		t.conflicts++
		if !t.relocate(s0, s1) {
			return 0, 0, nil
		}
		t.relocations++
		// After relocation at least one candidate set has a free way.
		ti, s = t.roomier(s0, s1)
	}
	vp = t.place(ti, s, key, val)
	t.size++
	t.markPresent(key, true)
	return ti, s, vp
}

// roomier picks the install target among the candidate sets by
// power-of-two choices: the set with more invalid ways, table 0 on ties.
func (t *Table[V]) roomier(s0, s1 int) (ti, s int) {
	if t.sets[1][s1].invalid > t.sets[0][s0].invalid {
		return 1, s1
	}
	return 0, s0
}

// place stores (key, val) in the lowest free way of set s of table ti,
// giving the set its slots on its first entry, and returns the stored
// value. The set must have a free way.
func (t *Table[V]) place(ti, s int, key uint64, val V) *V {
	st := &t.sets[ti][s]
	w := bits.TrailingZeros64(^st.mask)
	if w >= t.spec.Ways {
		panic("cat: invalid-way accounting corrupted")
	}
	if t.slots[ti][s] == nil {
		t.slots[ti][s] = make([]slot[V], t.spec.Ways)
	}
	st.mask |= 1 << w
	st.invalid--
	sl := &t.slots[ti][s][w]
	*sl = slot[V]{key: key, val: val}
	return &sl.val
}

// relocate attempts a one-level cuckoo move: find any entry in either
// candidate set whose alternate set (in the other table) has an invalid
// way, and move it there. Reports whether a way was freed.
func (t *Table[V]) relocate(s0, s1 int) bool {
	for ti, s := range [2]int{s0, s1} {
		ss := t.slots[ti][s]
		alt := 1 - ti
		for m := t.sets[ti][s].mask; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			as := t.setIndex(alt, ss[w].key)
			if t.sets[alt][as].invalid == 0 {
				continue
			}
			t.place(alt, as, ss[w].key, ss[w].val)
			t.vacate(ti, s, w)
			return true
		}
	}
	return false
}

// Delete removes key and reports whether it was present.
func (t *Table[V]) Delete(key uint64) bool {
	if !t.mightContain(key) {
		return false
	}
	s0, s1 := t.setsOf(key)
	for ti, s := range [2]int{s0, s1} {
		if w := t.find(ti, s, key); w >= 0 {
			t.remove(ti, s, w)
			return true
		}
	}
	return false
}

// DeleteAt removes the entry in way `way` of set s of table ti — a slot
// the caller located through ForEachInSet — without re-hashing its key,
// and returns that key. It panics if the slot holds no entry.
func (t *Table[V]) DeleteAt(ti, s, way int) uint64 {
	if way < 0 || way >= t.spec.Ways || t.sets[ti][s].mask&(1<<way) == 0 {
		panic(fmt.Sprintf("cat: DeleteAt of invalid slot (table %d, set %d, way %d)", ti, s, way))
	}
	key := t.slots[ti][s][way].key
	t.remove(ti, s, way)
	return key
}

// remove invalidates the valid slot at (ti, s, way).
func (t *Table[V]) remove(ti, s, way int) {
	t.markPresent(t.slots[ti][s][way].key, false)
	t.vacate(ti, s, way)
	t.size--
}

// vacate frees way of set s in table ti: its mask bit, its counter and
// its contents.
func (t *Table[V]) vacate(ti, s, way int) {
	st := &t.sets[ti][s]
	st.mask &^= 1 << way
	st.invalid++
	t.slots[ti][s][way] = slot[V]{}
}

// ForEach calls fn for every valid entry until fn returns false. The value
// pointer may be mutated in place; keys must not be changed.
func (t *Table[V]) ForEach(fn func(key uint64, val *V) bool) {
	for ti := 0; ti < 2; ti++ {
		for s := range t.sets[ti] {
			ss := t.slots[ti][s]
			for m := t.sets[ti][s].mask; m != 0; m &= m - 1 {
				sl := &ss[bits.TrailingZeros64(m)]
				if !fn(sl.key, &sl.val) {
					return
				}
			}
		}
	}
}

// RandomEntry returns a uniformly random valid entry satisfying pred
// (pred == nil accepts all). It returns ok == false if no entry qualifies.
// Selection first tries random probing, then falls back to a scan with
// reservoir sampling so it stays correct when few entries qualify.
func (t *Table[V]) RandomEntry(rng *prince.CTR, pred func(key uint64, val *V) bool) (key uint64, val *V, ok bool) {
	if t.size > 0 {
		perTable := t.spec.Sets * t.spec.Ways
		// Random probing succeeds quickly when the table is mostly full of
		// qualifying entries (the common case: unlocked RIT entries). The
		// mask is tested before the slot is read, so a probe into a set
		// without storage is a plain miss.
		for tries := 0; tries < 16; tries++ {
			idx := rng.Intn(2 * perTable)
			ti, i := idx/perTable, idx%perTable
			s, w := i/t.spec.Ways, i%t.spec.Ways
			if t.sets[ti][s].mask&(1<<w) == 0 {
				continue
			}
			sl := &t.slots[ti][s][w]
			if pred == nil || pred(sl.key, &sl.val) {
				return sl.key, &sl.val, true
			}
		}
	}
	// Reservoir sample over qualifying entries.
	n := 0
	t.ForEach(func(k uint64, v *V) bool {
		if pred == nil || pred(k, v) {
			n++
			if rng.Intn(n) == 0 {
				key, val = k, v
			}
		}
		return true
	})
	return key, val, n > 0
}

// SetLoad returns, for diagnostics and the Figure 9 experiment, the number
// of valid entries in set s of table ti.
func (t *Table[V]) SetLoad(ti, s int) int {
	return t.spec.Ways - t.sets[ti][s].invalid
}

// Clear invalidates every entry while keeping the hash keys (a hardware
// bulk-reset of valid bits). Sets keep their storage: the tracker clears
// every epoch and refills much the same sets.
func (t *Table[V]) Clear() {
	for ti := 0; ti < 2; ti++ {
		for s := range t.sets[ti] {
			clear(t.slots[ti][s])
			t.sets[ti][s] = setState{invalid: t.spec.Ways}
		}
	}
	t.size = 0
	clear(t.present)
	t.bigKeys = 0
}

// ForEachInSet calls fn for every valid entry in set s of table ti until
// fn returns false. way is the entry's position in the set, which DeleteAt
// accepts.
func (t *Table[V]) ForEachInSet(ti, s int, fn func(way int, key uint64, val *V) bool) {
	ss := t.slots[ti][s]
	for m := t.sets[ti][s].mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if !fn(w, ss[w].key, &ss[w].val) {
			return
		}
	}
}
