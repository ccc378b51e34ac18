// Package tracker implements the Hot-Row Tracker (HRT) of RRS: a
// Misra-Gries frequent-element tracker over DRAM row activations, as
// proposed in Graphene and adopted by the RRS paper.
//
// The Misra-Gries guarantee (Invariant 1 in the paper): with N counters and
// at most W activations in a tracking window, if N > W/T - 1 then every row
// whose true activation count reaches T (or any multiple of T) has an
// estimated counter value at least that large — so triggering a mitigation
// whenever a counter crosses a multiple of T can never miss an aggressor.
//
// Two implementations are provided behind the Tracker interface:
//
//   - CAM: the reference content-addressable implementation (Graphene
//     style), using a count-bucket structure for O(1) minimum tracking.
//     Not scalable in hardware beyond a few dozen entries, but exact.
//   - CAT: the paper's scalable implementation over a Collision Avoidance
//     Table with per-set SetMin counters (Section 6.4).
//
// Both trigger a swap recommendation each time a row's estimated count
// crosses a multiple of the threshold.
package tracker

import "repro/internal/obs"

// Tracker identifies rows whose activation count crosses multiples of a
// threshold within a tracking window (epoch).
type Tracker interface {
	// Observe records one activation of row and reports whether the row's
	// estimated count just crossed a multiple of the threshold — i.e.,
	// whether the mitigating action (row swap) should run now.
	Observe(row uint64) bool
	// Contains reports whether row currently has a tracker entry. RRS
	// excludes tracked rows from being random swap destinations.
	Contains(row uint64) bool
	// Count returns the estimated activation count for row, if tracked.
	Count(row uint64) (int64, bool)
	// Spill returns the spill counter (the Misra-Gries undercount bound).
	Spill() int64
	// Len returns the number of tracked rows.
	Len() int
	// Capacity returns the maximum number of tracked rows.
	Capacity() int
	// Threshold returns the swap threshold T.
	Threshold() int64
	// Reset clears all state at the end of an epoch.
	Reset()
}

// EvictionReporter is implemented by trackers that record which entry the
// most recent install displaced. The differential oracle (Shadow) uses it
// to identify the evicted row in O(1); without it the oracle must probe
// every minimum-count candidate through the wrapped tracker's (possibly
// hash-heavy) Contains, which turns each eviction into an O(capacity)
// scan. Both built-in trackers implement it.
type EvictionReporter interface {
	// EnableEvictionLog arms the log. Recording is off until then — even
	// two unconditional stores on the eviction path are measurable on
	// eviction-heavy streams — so Evictions and LastEvicted are only
	// meaningful after arming (NewShadow arms the tracker it wraps).
	EnableEvictionLog()
	// Evictions returns the total number of entries evicted since the log
	// was armed. It is monotonic across Reset, so callers can detect an
	// eviction by comparing the value around an observation.
	Evictions() uint64
	// LastEvicted returns the row displaced by the most recent eviction
	// (meaningful only after Evictions has advanced at least once).
	LastEvicted() uint64
}

// ObsTarget is implemented by trackers that can emit insert / evict /
// threshold-crossing events into an obs.Recorder. Both built-in trackers
// implement it; the hooks follow the same one-nil-test discipline as the
// eviction log, so a tracker without a recorder attached records nothing
// and allocates nothing.
type ObsTarget interface {
	// SetObs attaches the recorder; events are stamped with the
	// recorder's clock and the given flat bank index.
	SetObs(rec *obs.Recorder, bank int32)
}

// EntriesFor returns the number of Misra-Gries entries needed to guarantee
// detection at threshold t with at most actMax activations per window:
// the smallest N with N > actMax/t - 1 (the paper's E = ACT_max / T_RRS).
func EntriesFor(actMax, t int) int {
	if t <= 0 {
		panic("tracker: threshold must be positive")
	}
	// ceil(actMax/t) always satisfies N > actMax/t - 1 and matches the
	// paper's sizing (1.36M / 800 = 1700 entries).
	n := (actMax + t - 1) / t
	if n < 1 {
		n = 1
	}
	return n
}

// crossedMultiple reports whether the count moved from prev to cur crossed
// a (positive) multiple of t.
func crossedMultiple(prev, cur, t int64) bool {
	return cur/t > prev/t
}
