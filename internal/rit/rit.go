// Package rit implements the Row Indirection Table of RRS (Section 4.3):
// a per-bank table of swapped row tuples <X,Y>, stored as two entries (one
// indexed by X returning Y, one by Y returning X) so that either row's
// access finds its current physical location in one lookup.
//
// Entries installed in the current epoch carry a lock bit and can never be
// evicted before the epoch ends (the security of RRS depends on swapped
// rows staying swapped for the remainder of their tracking window). At the
// epoch boundary all lock bits clear, and stale tuples drain lazily:
// installs beyond the tuple capacity evict a random unlocked tuple, whose
// rows are then un-swapped by the caller.
package rit

import (
	"errors"
	"fmt"

	"repro/internal/cat"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/prince"
)

// ErrSelfSwap reports an Install of a row with itself.
var ErrSelfSwap = errors.New("rit: cannot swap a row with itself")

// ErrOccupied reports an Install over a row that is already swapped.
var ErrOccupied = errors.New("rit: installing tuple over an existing entry")

type entry struct {
	partner uint64
	locked  bool
}

// Eviction describes the tuple Install had to evict to make room.
// Happened is false when no eviction was needed; X and Y are then zero.
type Eviction struct {
	X, Y     uint64
	Happened bool
}

// RIT is one bank's row indirection table. The mapping it maintains is an
// involution: row X maps to Y exactly when Y maps to X.
//
// RIT is not safe for concurrent use.
type RIT struct {
	tab      *cat.Table[entry]
	capacity int // in tuples (each tuple occupies two entries)
	tuples   int
	rng      *prince.CTR

	// shadow, when non-nil, is the map-based reference model the paranoid
	// mode replays every mutation into; Remap answers are cross-checked
	// against it. The hot path pays exactly one nil test when disabled.
	shadow *shadow

	// rec, when non-nil, receives install/evict events (same one-nil-test
	// discipline as shadow); bank is the flat bank index stamped on them.
	rec     *obs.Recorder
	obsBank int32
}

// SetObs attaches an event recorder; install and eviction events are
// stamped with the recorder's clock and the given flat bank index.
func (r *RIT) SetObs(rec *obs.Recorder, bank int32) {
	r.rec = rec
	r.obsBank = bank
}

// New creates a RIT with the given CAT geometry and tuple capacity. The
// paper's configuration stores 3400 tuples (6800 entries) in 2 tables x
// 256 sets x 20 ways. The error wraps invariant.ErrBadGeometry when the
// geometry is invalid or cannot hold the requested tuples.
func New(spec cat.Spec, capacityTuples int, seed uint64) (*RIT, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("rit: %w: %v", invariant.ErrBadGeometry, err)
	}
	if capacityTuples <= 0 {
		return nil, fmt.Errorf("rit: %w: capacity %d must be positive", invariant.ErrBadGeometry, capacityTuples)
	}
	if spec.Slots() < 2*capacityTuples {
		return nil, fmt.Errorf("rit: %w: geometry %d slots cannot hold %d tuples",
			invariant.ErrBadGeometry, spec.Slots(), capacityTuples)
	}
	return &RIT{
		tab:      cat.New[entry](spec, seed),
		capacity: capacityTuples,
		rng:      prince.Seeded(seed ^ 0xA5A5A5A5),
	}, nil
}

// Remap returns the physical row currently holding row's data: its swap
// partner if swapped, otherwise row itself. Almost every access misses the
// RIT, and the table answers a miss from its presence bitset.
func (r *RIT) Remap(row uint64) uint64 {
	if r.shadow != nil {
		return r.remapChecked(row)
	}
	if e := r.tab.Lookup(row); e != nil {
		return e.partner
	}
	return row
}

// Lookup returns row's swap partner and whether row is swapped.
func (r *RIT) Lookup(row uint64) (partner uint64, ok bool) {
	if e := r.tab.Lookup(row); e != nil {
		return e.partner, true
	}
	return 0, false
}

// Contains reports whether row is part of any tuple. Rows in the RIT are
// excluded from being random swap destinations.
func (r *RIT) Contains(row uint64) bool { return r.tab.Contains(row) }

// Tuples returns the number of installed tuples.
func (r *RIT) Tuples() int { return r.tuples }

// Capacity returns the tuple capacity.
func (r *RIT) Capacity() int { return r.capacity }

// Install records the swap <x,y> with the lock bit set. If the table is at
// capacity, a random unlocked tuple is evicted first and returned so the
// caller can un-swap its rows. ok is false without error only on a CAT
// conflict or when the table is full of locked tuples — states the paper's
// sizing argument makes (astronomically) rare; the caller then skips the
// swap. A non-nil error (ErrSelfSwap, ErrOccupied) is a caller bug.
func (r *RIT) Install(x, y uint64) (ev Eviction, ok bool, err error) {
	if x == y {
		return Eviction{}, false, fmt.Errorf("%w: row %d", ErrSelfSwap, x)
	}
	if r.tab.Contains(x) || r.tab.Contains(y) {
		return Eviction{}, false, fmt.Errorf("%w: <%d,%d>", ErrOccupied, x, y)
	}
	if r.tuples >= r.capacity {
		ex, ey, did := r.EvictRandomUnlocked()
		if !did {
			return Eviction{}, false, nil
		}
		ev = Eviction{X: ex, Y: ey, Happened: true}
	}
	if r.tab.Install(x, entry{partner: y, locked: true}) == nil {
		// CAT conflict (astronomically rare at 6 extra ways): fail the
		// install; the caller skips the swap.
		return ev, false, nil
	}
	if r.tab.Install(y, entry{partner: x, locked: true}) == nil {
		r.tab.Delete(x)
		return ev, false, nil
	}
	r.tuples++
	if sh := r.shadow; sh != nil {
		sh.install(x, y)
	}
	if rec := r.rec; rec != nil {
		rec.RecordNow(obs.KindRITInstall, r.obsBank, x, y)
	}
	return ev, true, nil
}

// Remove deletes the tuple containing row (both entries) and returns the
// partner. ok is false if row is not swapped.
func (r *RIT) Remove(row uint64) (partner uint64, ok bool) {
	e := r.tab.Lookup(row)
	if e == nil {
		return 0, false
	}
	partner = e.partner
	r.tab.Delete(row)
	r.tab.Delete(partner)
	r.tuples--
	if sh := r.shadow; sh != nil {
		sh.remove(row, partner)
	}
	return partner, true
}

// EvictRandomUnlocked removes one uniformly random unlocked tuple and
// returns its rows. ok is false when every tuple is locked (or the table
// is empty).
func (r *RIT) EvictRandomUnlocked() (x, y uint64, ok bool) {
	key, e, found := r.tab.RandomEntry(r.rng, func(_ uint64, e *entry) bool {
		return !e.locked
	})
	if !found {
		return 0, 0, false
	}
	x, y = key, e.partner
	r.tab.Delete(x)
	r.tab.Delete(y)
	r.tuples--
	if sh := r.shadow; sh != nil {
		sh.evict(x, y)
	}
	if rec := r.rec; rec != nil {
		rec.RecordNow(obs.KindRITEvict, r.obsBank, x, y)
	}
	return x, y, true
}

// ClearLocks unlocks every entry; called at each epoch boundary so tuples
// from finished epochs become eligible for lazy eviction.
func (r *RIT) ClearLocks() {
	r.tab.ForEach(func(_ uint64, e *entry) bool {
		e.locked = false
		return true
	})
	if sh := r.shadow; sh != nil {
		sh.clearLocks()
	}
}

// LockedTuples counts tuples installed in the current epoch.
func (r *RIT) LockedTuples() int {
	locked := 0
	r.tab.ForEach(func(_ uint64, e *entry) bool {
		if e.locked {
			locked++
		}
		return true
	})
	return locked / 2
}

// ForEachTuple visits each tuple once (with x < y order normalized).
func (r *RIT) ForEachTuple(fn func(x, y uint64, locked bool) bool) {
	r.tab.ForEach(func(k uint64, e *entry) bool {
		if k < e.partner {
			return fn(k, e.partner, e.locked)
		}
		return true
	})
}

// CheckInvariants verifies the structural invariants of the table and
// returns a typed *invariant.Violation describing the first breach:
//
//   - cat/presence: the table's miss-path bitset agrees exactly with its
//     membership (checked first: every other check looks rows up).
//   - rit/involution: every entry X -> Y has a reverse entry Y -> X.
//   - rit/locks: both entries of a tuple carry the same lock bit.
//   - rit/count: entry count equals 2x the tuple counter, which never
//     exceeds capacity.
//
// Cost is O(slots + bitset words); the paranoid engine runs it on a
// cadence and tests call it after mutation sequences.
func (r *RIT) CheckInvariants() error {
	if err := r.tab.CheckPresence(); err != nil {
		return err
	}
	var verr error
	count := 0
	r.tab.ForEach(func(k uint64, e *entry) bool {
		count++
		back := r.tab.Lookup(e.partner)
		if back == nil {
			verr = invariant.Violatedf("rit/involution", "entry %d -> %d has no reverse entry", k, e.partner)
			return false
		}
		if back.partner != k {
			verr = invariant.Violatedf("rit/involution", "entry %d -> %d reversed to %d", k, e.partner, back.partner)
			return false
		}
		if back.locked != e.locked {
			verr = invariant.Violatedf("rit/locks", "tuple <%d,%d> has mismatched lock bits", k, e.partner)
			return false
		}
		return true
	})
	if verr != nil {
		return verr
	}
	if count != 2*r.tuples {
		return invariant.Violatedf("rit/count", "%d entries but tuple counter says %d", count, r.tuples)
	}
	if r.tuples > r.capacity {
		return invariant.Violatedf("rit/count", "%d tuples exceed capacity %d", r.tuples, r.capacity)
	}
	return nil
}

// --- Shadow reference model (paranoid mode) ---

// shadow is the map-based reference RIT of the differential oracle: a
// plain pairs map mirrored through every mutation, against which each
// Remap answer is cross-checked. Divergence is reported to the engine at
// the first mismatch, naming the row and both answers.
type shadow struct {
	eng    *invariant.Engine
	pairs  map[uint64]uint64
	locked map[uint64]bool
	checks int64
}

// EnableShadow attaches the reference model, seeded from the current
// table contents, and registers its per-remap check tally with eng.
// Violations the shadow detects are latched into eng.
func (r *RIT) EnableShadow(eng *invariant.Engine) {
	sh := &shadow{
		eng:    eng,
		pairs:  make(map[uint64]uint64),
		locked: make(map[uint64]bool),
	}
	r.tab.ForEach(func(k uint64, e *entry) bool {
		sh.pairs[k] = e.partner
		sh.locked[k] = e.locked
		return true
	})
	r.shadow = sh
	eng.RegisterCounter("rit/shadow", func() int64 { return sh.checks })
}

func (sh *shadow) install(x, y uint64) {
	sh.pairs[x], sh.pairs[y] = y, x
	sh.locked[x], sh.locked[y] = true, true
}

func (sh *shadow) remove(row, partner uint64) {
	if p, ok := sh.pairs[row]; !ok || p != partner {
		sh.eng.Report(invariant.Violatedf("rit/shadow",
			"Remove(%d) deleted partner %d; reference model has %d (present=%v)", row, partner, p, ok))
	}
	delete(sh.pairs, row)
	delete(sh.pairs, partner)
	delete(sh.locked, row)
	delete(sh.locked, partner)
}

func (sh *shadow) evict(x, y uint64) {
	if sh.locked[x] || sh.locked[y] {
		sh.eng.Report(invariant.Violatedf("rit/shadow",
			"evicted tuple <%d,%d> is locked in the reference model", x, y))
	}
	sh.remove(x, y)
}

func (sh *shadow) clearLocks() {
	for k := range sh.locked {
		sh.locked[k] = false
	}
}

// remapChecked answers Remap through the real lookup path and cross-checks
// the answer against the reference model.
func (r *RIT) remapChecked(row uint64) uint64 {
	got := row
	if e := r.tab.Lookup(row); e != nil {
		got = e.partner
	}
	sh := r.shadow
	sh.checks++
	want := row
	if p, ok := sh.pairs[row]; ok {
		want = p
	}
	if got != want {
		sh.eng.Report(invariant.Violatedf("rit/shadow",
			"Remap(%d) = %d, reference model says %d", row, got, want))
	}
	return got
}

// VerifyShadow sweeps the reference model against the table: every
// reference pair must be stored with a matching lock bit, and the entry
// counts must agree. It returns nil when no shadow is attached.
func (r *RIT) VerifyShadow() error {
	sh := r.shadow
	if sh == nil {
		return nil
	}
	for k, want := range sh.pairs {
		e := r.tab.Lookup(k)
		if e == nil {
			return invariant.Violatedf("rit/shadow", "reference pair %d -> %d missing from the table", k, want)
		}
		if e.partner != want {
			return invariant.Violatedf("rit/shadow", "table maps %d -> %d, reference model says %d", k, e.partner, want)
		}
		if e.locked != sh.locked[k] {
			return invariant.Violatedf("rit/shadow", "lock bit of %d is %v in the table, %v in the reference model", k, e.locked, sh.locked[k])
		}
	}
	if got := 2 * r.tuples; got != len(sh.pairs) {
		return invariant.Violatedf("rit/shadow", "table holds %d entries, reference model %d", got, len(sh.pairs))
	}
	return nil
}

// --- Test-only state corruption hooks ---
//
// The fault-injection suite flips bits in the RIT's redundant state
// through these narrow mutators to prove CheckInvariants/VerifyShadow
// detect every corruption class. Never call them from production code.

// CorruptPartnerForTest rewrites row's stored partner pointer (one
// direction only, breaking the involution), reporting whether row was
// present.
func (r *RIT) CorruptPartnerForTest(row, newPartner uint64) bool {
	e := r.tab.Lookup(row)
	if e == nil {
		return false
	}
	e.partner = newPartner
	return true
}

// CorruptLockForTest flips row's lock bit (one direction only, breaking
// lock parity), reporting whether row was present.
func (r *RIT) CorruptLockForTest(row uint64) bool {
	e := r.tab.Lookup(row)
	if e == nil {
		return false
	}
	e.locked = !e.locked
	return true
}

// CorruptTuplesForTest skews the tuple counter.
func (r *RIT) CorruptTuplesForTest(delta int) { r.tuples += delta }

// CorruptPresenceForTest flips row's presence bit in the table (rows
// under the bitset bound only).
func (r *RIT) CorruptPresenceForTest(row uint64) { r.tab.CorruptPresenceForTest(row) }

// CorruptBigRowsForTest skews the table's large-key counter.
func (r *RIT) CorruptBigRowsForTest(delta int) { r.tab.CorruptBigKeysForTest(delta) }
