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

	"repro/internal/prince"
)

// Spec describes a CAT geometry. The paper's RIT uses 2 tables x 256 sets
// x 20 ways; the tracker uses 2 tables x 64 sets x 20 ways, in both cases
// 14 demand ways and 6 extra ways.
type Spec struct {
	// Sets is the number of sets per table (the structure has 2 tables).
	Sets int
	// Ways is the total ways per set (demand + extra).
	Ways int
}

// Slots returns the total number of storage slots.
func (s Spec) Slots() int { return 2 * s.Sets * s.Ways }

// Validate reports an invalid geometry.
func (s Spec) Validate() error {
	if s.Sets <= 0 || s.Ways <= 0 {
		return fmt.Errorf("cat: invalid geometry %d sets x %d ways", s.Sets, s.Ways)
	}
	return nil
}

type slot[V any] struct {
	key   uint64
	val   V
	valid bool
}

// idxCacheBits sizes the per-table set-index memo (2^bits entries,
// 16 bytes each, 128 KiB). Keys are in-bank row ids, so the memo is
// indexed by the key's low bits: for banks with up to 2^idxCacheBits
// rows every key gets its own slot and the memo is collision-free;
// larger banks alias 2^(bits) apart, which row locality makes rare.
const idxCacheBits = 13

// maxBitsetKeys bounds the presence bitset at 512 KiB so adversarial
// 64-bit keys (fuzzers, tests) cannot balloon it.
const maxBitsetKeys = 1 << 22

// setPair memoizes the two candidate set indices of one key. s0p1 holds
// s0+1, so the zero value marks an empty entry and a fresh memo needs no
// initialization pass.
type setPair struct {
	key      uint64
	s0p1, s1 int32
}

// Table is a CAT holding values of type V keyed by 64-bit keys (row ids).
// The zero value is not usable; construct with New.
//
// Table is not safe for concurrent use.
type Table[V any] struct {
	spec    Spec
	slots   [2][]slot[V] // per table, sets*ways slots, set-major
	invalid [2][]int     // per table, per set: count of invalid ways
	hash    [2]*prince.Hash64
	size    int
	// idxCache is a direct-mapped memo of setIndex results. Set indices
	// are a pure function of the key and the boot-time hash keys, so the
	// memo never needs invalidation (Clear keeps the hash keys) and is
	// exactness-preserving; it exists because the two PRINCE evaluations
	// dominate the lookup cost and row accesses are heavily repetitive.
	// It is nil until the first memo miss, so tables that only ever
	// answer from the presence bitset (a swap-free run's RIT) never
	// allocate it.
	idxCache []setPair
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
		t.slots[i] = make([]slot[V], spec.Sets*spec.Ways)
		t.invalid[i] = make([]int, spec.Sets)
		for s := range t.invalid[i] {
			t.invalid[i][s] = spec.Ways
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

// setsOf returns both candidate set indices through the memo cache.
func (t *Table[V]) setsOf(key uint64) (int, int) {
	if t.idxCache == nil {
		t.idxCache = make([]setPair, 1<<idxCacheBits)
	}
	e := &t.idxCache[key&(1<<idxCacheBits-1)]
	if e.s0p1 != 0 && e.key == key {
		return int(e.s0p1 - 1), int(e.s1)
	}
	s0 := t.setIndex(0, key)
	s1 := t.setIndex(1, key)
	*e = setPair{key: key, s0p1: int32(s0) + 1, s1: int32(s1)}
	return s0, s1
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
		grown := make([]uint64, min(2*(w+1), maxBitsetKeys/64))
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

// setSlots returns the slot slice for set s of table ti.
func (t *Table[V]) setSlots(ti, s int) []slot[V] {
	w := t.spec.Ways
	return t.slots[ti][s*w : (s+1)*w]
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
	ss := t.setSlots(0, s0)
	for i := range ss {
		if ss[i].valid && ss[i].key == key {
			return 0, s0, &ss[i].val
		}
	}
	ss = t.setSlots(1, s1)
	for i := range ss {
		if ss[i].valid && ss[i].key == key {
			return 1, s1, &ss[i].val
		}
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
	inv0, inv1 := t.invalid[0][s0], t.invalid[1][s1]
	// Power-of-two-choices: prefer the set with more invalid ways.
	ti, s = 0, s0
	if inv1 > inv0 {
		ti, s = 1, s1
	}
	if t.invalid[ti][s] == 0 {
		t.conflicts++
		if !t.relocate(s0, s1) {
			return 0, 0, nil
		}
		t.relocations++
		// After relocation at least one candidate set has a free way.
		ti, s = 0, s0
		if t.invalid[1][s1] > t.invalid[0][s0] {
			ti, s = 1, s1
		}
	}
	ss := t.setSlots(ti, s)
	for i := range ss {
		if !ss[i].valid {
			ss[i] = slot[V]{key: key, val: val, valid: true}
			t.invalid[ti][s]--
			t.size++
			t.markPresent(key, true)
			return ti, s, &ss[i].val
		}
	}
	panic("cat: invalid-way accounting corrupted")
}

// relocate attempts a one-level cuckoo move: find any entry in either
// candidate set whose alternate set (in the other table) has an invalid
// way, and move it there. Reports whether a way was freed.
func (t *Table[V]) relocate(s0, s1 int) bool {
	for ti, s := range [2]int{s0, s1} {
		ss := t.setSlots(ti, s)
		alt := 1 - ti
		for i := range ss {
			if !ss[i].valid {
				continue
			}
			as := t.setIndex(alt, ss[i].key)
			if t.invalid[alt][as] == 0 {
				continue
			}
			dst := t.setSlots(alt, as)
			for j := range dst {
				if !dst[j].valid {
					dst[j] = ss[i]
					t.invalid[alt][as]--
					ss[i].valid = false
					t.invalid[ti][s]++
					return true
				}
			}
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
		ss := t.setSlots(ti, s)
		for i := range ss {
			if ss[i].valid && ss[i].key == key {
				t.remove(ti, s, i)
				return true
			}
		}
	}
	return false
}

// DeleteAt removes the entry in way `way` of set s of table ti — a slot
// the caller located through ForEachInSet — without re-hashing its key,
// and returns that key. It panics if the slot holds no entry.
func (t *Table[V]) DeleteAt(ti, s, way int) uint64 {
	sl := &t.setSlots(ti, s)[way]
	if !sl.valid {
		panic(fmt.Sprintf("cat: DeleteAt of invalid slot (table %d, set %d, way %d)", ti, s, way))
	}
	key := sl.key
	t.remove(ti, s, way)
	return key
}

// remove invalidates the valid slot at (ti, s, way).
func (t *Table[V]) remove(ti, s, way int) {
	sl := &t.setSlots(ti, s)[way]
	t.markPresent(sl.key, false)
	*sl = slot[V]{}
	t.invalid[ti][s]++
	t.size--
}

// ForEach calls fn for every valid entry until fn returns false. The value
// pointer may be mutated in place; keys must not be changed.
func (t *Table[V]) ForEach(fn func(key uint64, val *V) bool) {
	for ti := 0; ti < 2; ti++ {
		for i := range t.slots[ti] {
			if t.slots[ti][i].valid {
				if !fn(t.slots[ti][i].key, &t.slots[ti][i].val) {
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
		total := t.spec.Slots()
		// Random probing succeeds quickly when the table is mostly full of
		// qualifying entries (the common case: unlocked RIT entries).
		for tries := 0; tries < 16; tries++ {
			idx := rng.Intn(total)
			ti := idx / (t.spec.Sets * t.spec.Ways)
			sl := &t.slots[ti][idx%(t.spec.Sets*t.spec.Ways)]
			if sl.valid && (pred == nil || pred(sl.key, &sl.val)) {
				return sl.key, &sl.val, true
			}
		}
	}
	// Reservoir sample over qualifying entries.
	n := 0
	for ti := 0; ti < 2; ti++ {
		for i := range t.slots[ti] {
			sl := &t.slots[ti][i]
			if sl.valid && (pred == nil || pred(sl.key, &sl.val)) {
				n++
				if rng.Intn(n) == 0 {
					key, val = sl.key, &sl.val
				}
			}
		}
	}
	return key, val, n > 0
}

// SetLoad returns, for diagnostics and the Figure 9 experiment, the number
// of valid entries in set s of table ti.
func (t *Table[V]) SetLoad(ti, s int) int {
	return t.spec.Ways - t.invalid[ti][s]
}

// Clear invalidates every entry while keeping the hash keys (a hardware
// bulk-reset of valid bits).
func (t *Table[V]) Clear() {
	var zero slot[V]
	for ti := 0; ti < 2; ti++ {
		for i := range t.slots[ti] {
			t.slots[ti][i] = zero
		}
		for s := range t.invalid[ti] {
			t.invalid[ti][s] = t.spec.Ways
		}
	}
	t.size = 0
	clear(t.present)
	t.bigKeys = 0
}

// SetsOf returns the two candidate set indices (in table 0 and table 1)
// that key hashes to. The scalable Misra-Gries tracker uses this to
// maintain its per-set minimum counters.
func (t *Table[V]) SetsOf(key uint64) (s0, s1 int) {
	return t.setsOf(key)
}

// ForEachInSet calls fn for every valid entry in set s of table ti until
// fn returns false. way is the entry's position in the set, which DeleteAt
// accepts.
func (t *Table[V]) ForEachInSet(ti, s int, fn func(way int, key uint64, val *V) bool) {
	ss := t.setSlots(ti, s)
	for i := range ss {
		if ss[i].valid {
			if !fn(i, ss[i].key, &ss[i].val) {
				return
			}
		}
	}
}
