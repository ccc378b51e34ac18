package tracker

import (
	"math"

	"repro/internal/invariant"
)

// Shadow is the differential oracle of the paranoid mode: it wraps any
// Tracker behind the same interface and replays every observation into a
// plain map-based Misra-Gries reference model, cross-checking counts,
// trigger decisions, installs, spill advances and evictions at the first
// mismatch. Divergence is reported to the invariant engine as a
// "tracker/shadow" Violation naming the row and both answers.
//
// Because core holds trackers through the Tracker interface, wrapping
// costs the unwrapped configuration nothing. The wrapped path stays
// O(1) amortized per observation: the reference minimum is maintained
// incrementally through a count histogram, and when the wrapped tracker
// implements EvictionReporter (both built-ins do) the evicted row is
// identified directly instead of probing every minimum-count candidate.
type Shadow struct {
	inner Tracker
	eng   *invariant.Engine
	rec   EvictionReporter // non-nil when inner reports evictions

	counts map[uint64]int64
	// hist is the multiplicity of each live count value in counts, and
	// min the smallest of them (valid while counts is non-empty). Counts
	// only grow between evictions, so maintaining them incrementally
	// keeps the minimum query O(1) where a map scan per miss would make
	// the oracle O(capacity) per observation.
	hist  map[int64]int64
	min   int64
	spill int64

	checks int64
}

var _ Tracker = (*Shadow)(nil)

// NewShadow wraps inner (which must be freshly constructed — the
// reference model starts empty) and registers its per-observation check
// tally with eng.
func NewShadow(inner Tracker, eng *invariant.Engine) *Shadow {
	s := &Shadow{
		inner:  inner,
		eng:    eng,
		counts: make(map[uint64]int64, inner.Capacity()),
		hist:   make(map[int64]int64),
	}
	if rec, ok := inner.(EvictionReporter); ok {
		rec.EnableEvictionLog()
		s.rec = rec
	}
	if inner.Len() != 0 {
		eng.Report(invariant.Violatedf("tracker/shadow",
			"wrapped tracker already holds %d entries; the reference model starts empty", inner.Len()))
	}
	eng.RegisterCounter("tracker/shadow", func() int64 { return s.checks })
	return s
}

// Inner returns the wrapped tracker.
func (s *Shadow) Inner() Tracker { return s.inner }

func (s *Shadow) report(format string, args ...any) {
	s.eng.Report(invariant.Violatedf("tracker/shadow", format, args...))
}

func (s *Shadow) minCount() int64 {
	if len(s.counts) == 0 {
		return math.MaxInt64
	}
	return s.min
}

// recomputeMin rescans the count histogram after the last entry at the
// cached minimum disappeared. O(distinct count values), and a full
// sweep of entries must be bumped between rescans, so amortized O(1).
func (s *Shadow) recomputeMin() {
	min := int64(math.MaxInt64)
	for c := range s.hist {
		if c < min {
			min = c
		}
	}
	s.min = min
}

// addRef installs row into the reference model at cnt.
func (s *Shadow) addRef(row uint64, cnt int64) {
	s.counts[row] = cnt
	s.hist[cnt]++
	if len(s.counts) == 1 || cnt < s.min {
		s.min = cnt
	}
}

// bumpRef raises row's reference count from prev to cur.
func (s *Shadow) bumpRef(row uint64, prev, cur int64) {
	s.counts[row] = cur
	s.hist[cur]++
	if s.hist[prev]--; s.hist[prev] == 0 {
		delete(s.hist, prev)
		if prev == s.min {
			s.recomputeMin()
		}
	}
}

// removeRef evicts row from the reference model.
func (s *Shadow) removeRef(row uint64) {
	cnt := s.counts[row]
	delete(s.counts, row)
	if s.hist[cnt]--; s.hist[cnt] == 0 {
		delete(s.hist, cnt)
		if cnt == s.min && len(s.counts) > 0 {
			s.recomputeMin()
		}
	}
}

// Observe implements Tracker: the observation runs on the wrapped
// tracker, then the reference model mirrors it and every externally
// visible consequence is cross-checked.
func (s *Shadow) Observe(row uint64) bool {
	var preEv uint64
	if s.rec != nil {
		preEv = s.rec.Evictions()
	}
	preLen := s.inner.Len()
	fired := s.inner.Observe(row)
	s.checks++
	if prev, tracked := s.counts[row]; tracked {
		cur := prev + 1
		s.bumpRef(row, prev, cur)
		if got, ok := s.inner.Count(row); !ok || got != cur {
			s.report("after Observe(%d): count %d (tracked=%v), reference model says %d", row, got, ok, cur)
		}
		if want := crossedMultiple(prev, cur, s.inner.Threshold()); fired != want {
			s.report("Observe(%d) fired=%v at count %d -> %d, reference model says %v", row, fired, prev, cur, want)
		}
	} else {
		if fired {
			s.report("Observe(%d) fired on an untracked row (installs never trigger)", row)
		}
		if s.rec != nil {
			s.afterMissReported(row, preLen, s.rec.Evictions()-preEv)
		} else {
			s.afterMiss(row)
		}
	}
	if got := s.inner.Spill(); got != s.spill {
		s.report("spill counter %d, reference model says %d", got, s.spill)
	}
	if got := s.inner.Len(); got != len(s.counts) {
		s.report("tracker holds %d entries, reference model %d", got, len(s.counts))
	}
	return fired
}

// afterMissReported mirrors an observation of an untracked row using the
// wrapped tracker's eviction log: the entry-count delta and eviction
// count pin down which of install, eviction+install, spill advance or
// dropped CAT conflict happened, without probing candidates.
func (s *Shadow) afterMissReported(row uint64, preLen int, evs uint64) {
	if evs > 1 {
		s.report("Observe(%d) evicted %d entries in one observation", row, evs)
	}
	if evs == 1 {
		s.evictReported(s.rec.LastEvicted())
	}
	switch got := s.inner.Len(); {
	case got == preLen+1 && evs == 0, got == preLen && evs == 1:
		// Install (displacing a minimum entry when the table was full).
		want := s.spill + 1
		if gotCnt, _ := s.inner.Count(row); gotCnt != want {
			s.report("installed row %d at count %d, reference model says %d", row, gotCnt, want)
		}
		s.addRef(row, want)
	case got == preLen && evs == 0:
		// No install: a spill advance (minimum above spill) — or, below
		// capacity, a dropped CAT placement conflict, which changes
		// nothing.
		if len(s.counts) >= s.inner.Capacity() && s.minCount() > s.spill {
			s.spill++
			return
		}
		if len(s.counts) < s.inner.Capacity() {
			return
		}
		s.report("Observe(%d) neither installed nor advanced the spill counter (min %d, spill %d)",
			row, s.minCount(), s.spill)
	case got == preLen-1 && evs == 1:
		// Astronomically rare: the eviction went through, then the CAT
		// dropped the install on a placement conflict.
		return
	default:
		s.report("Observe(%d) moved the entry count %d -> %d with %d evictions", row, preLen, got, evs)
	}
}

// evictReported checks a reported eviction against the reference model
// and mirrors it: the victim must be tracked at the minimum count, the
// minimum must equal the spill counter, and the entry must really be
// gone from the wrapped tracker.
func (s *Shadow) evictReported(victim uint64) {
	cnt, ok := s.counts[victim]
	if !ok {
		s.report("tracker evicted row %d, which the reference model does not track", victim)
		return
	}
	if cnt != s.minCount() {
		s.report("evicted row %d at count %d, reference minimum is %d", victim, cnt, s.minCount())
	}
	if cnt != s.spill {
		s.report("eviction with minimum count %d != spill counter %d", cnt, s.spill)
	}
	if s.inner.Contains(victim) {
		s.report("evicted row %d is still tracked", victim)
	}
	s.removeRef(victim)
}

// afterMiss mirrors an observation of a row the reference model does not
// track when the wrapped tracker has no eviction log: an install
// (evicting a minimum-count entry when full) or a spill advance,
// whichever probing the wrapped tracker reveals.
func (s *Shadow) afterMiss(row uint64) {
	if s.inner.Contains(row) {
		// Install. When the model was full, some minimum-count entry must
		// have been evicted to make room.
		if len(s.counts) >= s.inner.Capacity() {
			s.evictVictim()
		}
		want := s.spill + 1
		if got, _ := s.inner.Count(row); got != want {
			s.report("installed row %d at count %d, reference model says %d", row, got, want)
		}
		s.addRef(row, want)
		return
	}
	// No install. Either the spill counter advanced (minimum above spill)
	// or — astronomically rarely — a CAT conflict dropped the install
	// after an eviction already happened; mirror whichever the entry
	// count reveals.
	if len(s.counts) >= s.inner.Capacity() && s.minCount() > s.spill {
		s.spill++
		return
	}
	if s.inner.Len() < len(s.counts) {
		s.evictVictim()
		return
	}
	if len(s.counts) < s.inner.Capacity() && s.inner.Len() == len(s.counts) {
		// Below capacity the only non-install outcome is a dropped CAT
		// conflict, which keeps the entry counts equal; nothing to mirror.
		return
	}
	s.report("Observe(%d) neither installed nor advanced the spill counter (min %d, spill %d)",
		row, s.minCount(), s.spill)
}

// evictVictim removes from the reference model the entry the wrapped
// tracker evicted: a minimum-count row no longer present in the tracker.
// Eviction is only legal when the minimum equals the spill counter.
// Fallback path for trackers without an eviction log — O(capacity).
func (s *Shadow) evictVictim() {
	min := s.minCount()
	if min != s.spill {
		s.report("eviction with minimum count %d != spill counter %d", min, s.spill)
	}
	victim := uint64(0)
	found := 0
	for r, c := range s.counts {
		if c == min && !s.inner.Contains(r) {
			victim = r
			found++
		}
	}
	switch found {
	case 1:
		s.removeRef(victim)
	case 0:
		s.report("tracker evicted an entry but every minimum-count reference row is still tracked")
	default:
		s.report("%d minimum-count reference rows vanished in one eviction", found)
	}
}

// Verify sweeps the reference model against the wrapped tracker: every
// reference entry must be tracked at the same count, and the entry and
// spill counters must agree. Registered by the paranoid engine as the
// "tracker/shadow" structural check.
func (s *Shadow) Verify() error {
	for r, want := range s.counts {
		got, ok := s.inner.Count(r)
		if !ok {
			return invariant.Violatedf("tracker/shadow", "reference row %d is not tracked", r)
		}
		if got != want {
			return invariant.Violatedf("tracker/shadow", "row %d tracked at %d, reference model says %d", r, got, want)
		}
	}
	if got := s.inner.Len(); got != len(s.counts) {
		return invariant.Violatedf("tracker/shadow", "tracker holds %d entries, reference model %d", got, len(s.counts))
	}
	if got := s.inner.Spill(); got != s.spill {
		return invariant.Violatedf("tracker/shadow", "spill counter %d, reference model says %d", got, s.spill)
	}
	return nil
}

// CheckInvariants forwards to the wrapped tracker's structural checks.
func (s *Shadow) CheckInvariants() error {
	if sc, ok := s.inner.(SelfChecker); ok {
		return sc.CheckInvariants()
	}
	return nil
}

// Contains implements Tracker, cross-checking against the reference set.
func (s *Shadow) Contains(row uint64) bool {
	got := s.inner.Contains(row)
	if _, want := s.counts[row]; got != want {
		s.report("Contains(%d) = %v, reference model says %v", row, got, want)
	}
	return got
}

// Count implements Tracker.
func (s *Shadow) Count(row uint64) (int64, bool) { return s.inner.Count(row) }

// Spill implements Tracker.
func (s *Shadow) Spill() int64 { return s.inner.Spill() }

// Len implements Tracker.
func (s *Shadow) Len() int { return s.inner.Len() }

// Capacity implements Tracker.
func (s *Shadow) Capacity() int { return s.inner.Capacity() }

// Threshold implements Tracker.
func (s *Shadow) Threshold() int64 { return s.inner.Threshold() }

// Reset implements Tracker.
func (s *Shadow) Reset() {
	s.inner.Reset()
	clear(s.counts)
	clear(s.hist)
	s.spill = 0
}
