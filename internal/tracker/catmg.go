package tracker

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cat"
	"repro/internal/invariant"
	"repro/internal/obs"
)

// CAT is the paper's scalable Misra-Gries tracker (Section 6.4): entries
// live in a Collision Avoidance Table, and each set carries a SetMin
// counter tracking the minimum access count in that set. The spill counter
// is compared against the SetMin counters (128 of them for the default
// 2x64-set geometry) instead of a fully associative counter search.
//
// SetMin counters are maintained incrementally: a counter bump rescans a
// set only when the bumped entry held that set's minimum, and installs and
// deletes adjust only the one set they touch. A cached global minimum and
// a bitmask of the sets holding it replace the per-miss scan of all
// SetMin counters, and an eviction visits only the masked sets. All of it
// is exactness-preserving, so tracker decisions are bit-identical to the
// rescan-everything formulation. Evictions delete the victim by the slot
// the minimum search found it in, and misses answer from the table's
// presence bitset, so neither re-hashes a row. The one event the
// single-set bookkeeping cannot see — a cuckoo relocation inside the CAT
// moving some third entry between sets — is detected via the table's
// relocation counter and answered with a full SetMin rebuild.
type CAT struct {
	threshold int64
	capacity  int
	spill     int64

	tab *cat.Table[int64] // row -> estimated count
	// setMin[ti][s] is the minimum count in set s of table ti, or
	// math.MaxInt64 when the set is empty.
	setMin [2][]int64

	// gmin caches the minimum over all SetMin counters, and bit s of
	// atMin[ti] is set iff setMin[ti][s] == gmin. An empty mask means the
	// last set at the minimum moved up: gmin is then stale, below every
	// SetMin counter, and globalMin rebuilds both.
	gmin  int64
	atMin [2][]uint64

	// relocs is the last observed tab.Relocations(), to detect cuckoo
	// moves during installs.
	relocs int

	// Eviction log for the differential oracle (EvictionReporter);
	// recording is off until logEvictions is armed.
	logEvictions bool
	evictions    uint64
	lastEvicted  uint64

	// rec, when non-nil, receives insert/evict/crossing events (ObsTarget).
	rec     *obs.Recorder
	obsBank int32
}

// SetObs implements ObsTarget.
func (t *CAT) SetObs(rec *obs.Recorder, bank int32) {
	t.rec = rec
	t.obsBank = bank
}

var (
	_ Tracker          = (*CAT)(nil)
	_ EvictionReporter = (*CAT)(nil)
)

// NewCAT creates a scalable tracker with the given CAT geometry, entry
// capacity and swap threshold. The geometry must have at least capacity
// slots; the paper uses 2x64 sets x 20 ways (2560 slots) for 1700 entries,
// i.e., 14 demand ways and 6 extra ways per set. The error wraps
// invariant.ErrBadGeometry.
func NewCAT(spec cat.Spec, capacity int, threshold int64, seed uint64) (*CAT, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("tracker: %w: %v", invariant.ErrBadGeometry, err)
	}
	if capacity <= 0 || threshold <= 0 {
		return nil, fmt.Errorf("tracker: %w: capacity %d and threshold %d must be positive",
			invariant.ErrBadGeometry, capacity, threshold)
	}
	if spec.Slots() < capacity {
		return nil, fmt.Errorf("tracker: %w: CAT geometry (%d slots) smaller than tracker capacity %d",
			invariant.ErrBadGeometry, spec.Slots(), capacity)
	}
	t := &CAT{
		threshold: threshold,
		capacity:  capacity,
		tab:       cat.New[int64](spec, seed),
	}
	for ti := 0; ti < 2; ti++ {
		t.setMin[ti] = make([]int64, spec.Sets)
		t.atMin[ti] = make([]uint64, (spec.Sets+63)/64)
	}
	t.Reset()
	return t, nil
}

// setSetMin stores set s's exact minimum and folds it into the cached
// global minimum and the at-minimum mask.
func (t *CAT) setSetMin(ti, s int, min int64) {
	t.setMin[ti][s] = min
	w, bit := s>>6, uint64(1)<<(s&63)
	switch {
	case min < t.gmin:
		t.gmin = min
		clear(t.atMin[0])
		clear(t.atMin[1])
		t.atMin[ti][w] = bit
	case min == t.gmin:
		t.atMin[ti][w] |= bit
	default:
		// May empty the mask, leaving gmin below every set: stale.
		t.atMin[ti][w] &^= bit
	}
}

// rebuildMin recomputes the global minimum and the at-minimum mask from
// the SetMin counters.
func (t *CAT) rebuildMin() {
	t.gmin = math.MaxInt64
	clear(t.atMin[0])
	clear(t.atMin[1])
	for ti := 0; ti < 2; ti++ {
		for s, m := range t.setMin[ti] {
			t.setSetMin(ti, s, m)
		}
	}
}

// scanSetMin returns the minimum count in one set, or math.MaxInt64 when
// the set is empty.
func (t *CAT) scanSetMin(ti, s int) int64 {
	min := int64(math.MaxInt64)
	t.tab.ForEachInSet(ti, s, func(_ int, _ uint64, v *int64) bool {
		if *v < min {
			min = *v
		}
		return true
	})
	return min
}

// recomputeSetMin rescans one set's counters and folds the change into
// the cached global minimum.
func (t *CAT) recomputeSetMin(ti, s int) { t.setSetMin(ti, s, t.scanSetMin(ti, s)) }

// recomputeAllSetMin rebuilds every SetMin counter, the global minimum
// and the mask. Only needed after a cuckoo relocation inside the CAT,
// which is astronomically rare with the paper's 6 extra ways.
func (t *CAT) recomputeAllSetMin() {
	for ti := 0; ti < 2; ti++ {
		for s := range t.setMin[ti] {
			t.setMin[ti][s] = t.scanSetMin(ti, s)
		}
	}
	t.rebuildMin()
}

// minStale reports whether the at-minimum mask is empty.
func (t *CAT) minStale() bool {
	for ti := 0; ti < 2; ti++ {
		for _, w := range t.atMin[ti] {
			if w != 0 {
				return false
			}
		}
	}
	return true
}

// globalMin returns the minimum over the SetMin counters (the hardware
// scans them in the shadow of the memory access; see the paper).
func (t *CAT) globalMin() int64 {
	if t.minStale() {
		t.rebuildMin()
	}
	return t.gmin
}

// Observe implements Tracker.
func (t *CAT) Observe(row uint64) bool {
	if ti, s, p := t.tab.LookupPos(row); p != nil {
		prev := *p
		*p = prev + 1
		// Only the holding set's minimum can change, and only if this
		// entry sat at it.
		if prev == t.setMin[ti][s] {
			t.recomputeSetMin(ti, s)
		}
		crossed := crossedMultiple(prev, prev+1, t.threshold)
		if crossed && t.rec != nil {
			t.rec.RecordNow(obs.KindHRTCross, t.obsBank, row, uint64(prev+1))
		}
		return crossed
	}
	// Installs never trigger (see the CAM implementation's comment: an
	// untracked row's true count is bounded by the spill counter < T).
	if t.tab.Len() < t.capacity {
		t.install(row)
		return false
	}
	min := t.globalMin()
	if min > t.spill {
		t.spill++
		return false
	}
	// Replace an entry holding the minimum count: find a set whose SetMin
	// equals the global minimum and evict a minimum entry from it.
	if vti, vs, way, found := t.findMinEntry(min); found {
		victim := t.tab.DeleteAt(vti, vs, way)
		if t.logEvictions {
			t.lastEvicted = victim
			t.evictions++
		}
		if t.rec != nil {
			t.rec.RecordNow(obs.KindHRTEvict, t.obsBank, victim, uint64(min))
		}
		t.recomputeSetMin(vti, vs)
	}
	t.install(row)
	return false
}

// findMinEntry locates the first entry (in table, set, way order) whose
// count equals min, the global minimum globalMin just returned, and
// returns its slot. Only the sets in the at-minimum mask can hold one.
func (t *CAT) findMinEntry(min int64) (ti, s, way int, found bool) {
	for ti = 0; ti < 2; ti++ {
		for wi, m := range t.atMin[ti] {
			for ; m != 0; m &= m - 1 {
				s = wi<<6 | bits.TrailingZeros64(m)
				t.tab.ForEachInSet(ti, s, func(w int, _ uint64, v *int64) bool {
					if *v == min {
						way, found = w, true
						return false
					}
					return true
				})
				if found {
					return ti, s, way, true
				}
			}
		}
	}
	return 0, 0, 0, false
}

// install adds a missed row at spill+1. A CAT conflict (astronomically
// rare with 6 extra ways) drops the install, which only makes the
// tracker more conservative about the spill bound on the next miss.
func (t *CAT) install(row uint64) {
	cnt := t.spill + 1
	ti, s, vp := t.tab.InstallPos(row, cnt)
	if vp == nil {
		return
	}
	if t.rec != nil {
		t.rec.RecordNow(obs.KindHRTInsert, t.obsBank, row, uint64(cnt))
	}
	if r := t.tab.Relocations(); r != t.relocs {
		// A cuckoo move shifted a third entry between sets; the
		// incremental bookkeeping cannot attribute it, so rebuild.
		t.relocs = r
		t.recomputeAllSetMin()
		return
	}
	if cnt < t.setMin[ti][s] {
		t.setSetMin(ti, s, cnt)
	}
}

// EnableEvictionLog implements EvictionReporter.
func (t *CAT) EnableEvictionLog() { t.logEvictions = true }

// Evictions implements EvictionReporter (monotonic across Reset).
func (t *CAT) Evictions() uint64 { return t.evictions }

// LastEvicted implements EvictionReporter.
func (t *CAT) LastEvicted() uint64 { return t.lastEvicted }

// Contains implements Tracker.
func (t *CAT) Contains(row uint64) bool { return t.tab.Contains(row) }

// Count implements Tracker.
func (t *CAT) Count(row uint64) (int64, bool) {
	if p := t.tab.Lookup(row); p != nil {
		return *p, true
	}
	return 0, false
}

// Spill implements Tracker.
func (t *CAT) Spill() int64 { return t.spill }

// Len implements Tracker.
func (t *CAT) Len() int { return t.tab.Len() }

// Capacity implements Tracker.
func (t *CAT) Capacity() int { return t.capacity }

// Threshold implements Tracker.
func (t *CAT) Threshold() int64 { return t.threshold }

// Reset implements Tracker. The hash keys stay fixed (as in hardware,
// where they are set at boot); only valid bits and counters clear.
func (t *CAT) Reset() {
	t.spill = 0
	t.tab.Clear()
	for ti := 0; ti < 2; ti++ {
		for s := range t.setMin[ti] {
			t.setMin[ti][s] = math.MaxInt64
		}
	}
	t.rebuildMin()
}
