package tracker

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/obs"
)

// CAM is the reference Misra-Gries tracker: a fully associative
// (content-addressable) table as used by Graphene. Entries live in flat
// preallocated slot arrays (row, count) reached through a private
// open-addressed index, so the per-activation Observe path performs no
// map operations and no allocations. A cached minimum (value + population
// count + a candidate queue in ascending slot order) keeps the "is the
// minimum counter equal to the spill counter" test O(1) and minimum-entry
// replacement O(1) amortized.
//
// Eviction is deterministic: among entries at the minimum count, the one
// in the lowest slot index (ties broken by queue rebuild order, itself a
// pure function of the observation sequence) is replaced. The previous
// implementation picked a victim via Go map iteration, whose order is
// randomized per process — two runs of the same trace could evolve
// different tracker states, breaking the engine's determinism guarantee
// (and with it the service's content-addressed result cache) for any
// configuration using the CAM tracker.
type CAM struct {
	threshold int64
	capacity  int
	spill     int64

	// Slot arrays; slots [0, size) are live. Eviction replaces a victim
	// slot in place, so live slots stay compact.
	rows []uint64
	cnts []int64
	size int

	// idx maps row -> slot+1 by linear probing (0 = empty). Its length is
	// a power of two at least 4x capacity, keeping the load factor <= 1/4.
	idx     []int32
	idxMask uint64

	minVal   int64 // minimum count over live slots (valid if size > 0)
	minCount int   // live slots with count == minVal

	// minQueue holds candidate victim slots for the current minVal in
	// ascending order, consumed from the head; entries are validated
	// against the live count on pop (a queued slot may have been bumped).
	minQueue []int32
	minHead  int

	// Eviction log for the differential oracle (EvictionReporter);
	// recording is off until logEvictions is armed.
	logEvictions bool
	evictions    uint64
	lastEvicted  uint64
	evictLie     bool   // test hook: LastEvicted lies
	evictLieRow  uint64 // the row it lies about

	// rec, when non-nil, receives insert/evict/crossing events (ObsTarget).
	rec     *obs.Recorder
	obsBank int32
}

// SetObs implements ObsTarget.
func (c *CAM) SetObs(rec *obs.Recorder, bank int32) {
	c.rec = rec
	c.obsBank = bank
}

var (
	_ Tracker          = (*CAM)(nil)
	_ EvictionReporter = (*CAM)(nil)
)

// NewCAM creates a reference tracker with the given entry capacity and
// swap threshold. The error wraps invariant.ErrBadGeometry.
func NewCAM(capacity int, threshold int64) (*CAM, error) {
	if capacity <= 0 || threshold <= 0 {
		return nil, fmt.Errorf("tracker: %w: capacity %d and threshold %d must be positive",
			invariant.ErrBadGeometry, capacity, threshold)
	}
	idxLen := 4
	for idxLen < 4*capacity {
		idxLen *= 2
	}
	return &CAM{
		threshold: threshold,
		capacity:  capacity,
		rows:      make([]uint64, capacity),
		cnts:      make([]int64, capacity),
		idx:       make([]int32, idxLen),
		idxMask:   uint64(idxLen - 1),
		minQueue:  make([]int32, 0, capacity),
	}, nil
}

// camHash is the splitmix64 finalizer — an invertible mixer, so distinct
// rows probe from well-spread origins.
func camHash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// lookup returns the slot holding row, or -1.
func (c *CAM) lookup(row uint64) int {
	i := camHash(row) & c.idxMask
	for {
		s := c.idx[i]
		if s == 0 {
			return -1
		}
		if c.rows[s-1] == row {
			return int(s - 1)
		}
		i = (i + 1) & c.idxMask
	}
}

// idxInsert maps row to slot. The caller guarantees row is absent.
func (c *CAM) idxInsert(row uint64, slot int) {
	i := camHash(row) & c.idxMask
	for c.idx[i] != 0 {
		i = (i + 1) & c.idxMask
	}
	c.idx[i] = int32(slot + 1)
}

// idxDelete unmaps row using backward-shift deletion, which keeps probe
// chains tombstone-free.
func (c *CAM) idxDelete(row uint64) {
	i := camHash(row) & c.idxMask
	for {
		s := c.idx[i]
		if s == 0 {
			return
		}
		if c.rows[s-1] == row {
			break
		}
		i = (i + 1) & c.idxMask
	}
	j := i
	for {
		j = (j + 1) & c.idxMask
		s := c.idx[j]
		if s == 0 {
			break
		}
		home := camHash(c.rows[s-1]) & c.idxMask
		// Shift s into the hole unless its home lies inside (i, j].
		if (j-home)&c.idxMask >= (j-i)&c.idxMask {
			c.idx[i] = s
			i = j
		}
	}
	c.idx[i] = 0
}

// Observe implements Tracker.
func (c *CAM) Observe(row uint64) bool {
	if s := c.lookup(row); s >= 0 {
		cnt := c.cnts[s]
		c.cnts[s] = cnt + 1
		if cnt == c.minVal {
			c.minCount--
			if c.minCount == 0 {
				c.advanceMin()
			}
		}
		crossed := crossedMultiple(cnt, cnt+1, c.threshold)
		if crossed && c.rec != nil {
			c.rec.RecordNow(obs.KindHRTCross, c.obsBank, row, uint64(cnt+1))
		}
		return crossed
	}
	// Installs never trigger: a row not in the table has a true count of
	// at most the spill counter, which the Misra-Gries sizing bounds by
	// W/(N+1) < T — so a freshly installed row cannot already have T true
	// activations. (Its estimate may start at spill+1 and cross a
	// multiple late by up to spill; the security analysis absorbs that
	// slack, and triggering on installs instead would cause swap storms
	// on flat access patterns once the spill counter saturates.)
	if c.size < c.capacity {
		c.installAt(c.size, row, c.spill+1)
		c.size++
		if c.rec != nil {
			c.rec.RecordNow(obs.KindHRTInsert, c.obsBank, row, uint64(c.spill+1))
		}
		return false
	}
	if c.minVal > c.spill {
		c.spill++
		return false
	}
	// minVal == spill (minVal < spill is impossible; the spill counter
	// only advances past the minimum): replace one minimum entry with the
	// new row at count spill+1.
	victim := c.findMinSlot()
	if c.logEvictions {
		c.lastEvicted = c.rows[victim]
		c.evictions++
	}
	if c.rec != nil {
		c.rec.RecordNow(obs.KindHRTEvict, c.obsBank, c.rows[victim], uint64(c.cnts[victim]))
	}
	c.idxDelete(c.rows[victim])
	c.minCount--
	c.installAt(victim, row, c.spill+1)
	if c.minCount == 0 {
		c.advanceMin()
	}
	if c.rec != nil {
		c.rec.RecordNow(obs.KindHRTInsert, c.obsBank, row, uint64(c.spill+1))
	}
	return false
}

// installAt writes (row, cnt) into slot and maintains the index and the
// cached minimum.
func (c *CAM) installAt(slot int, row uint64, cnt int64) {
	c.rows[slot] = row
	c.cnts[slot] = cnt
	c.idxInsert(row, slot)
	switch {
	case c.size == 0 && slot == 0, cnt < c.minVal:
		c.minVal = cnt
		c.minCount = 1
		c.resetMinQueue()
	case cnt == c.minVal:
		c.minCount++
	}
}

// advanceMin rescans the slots for the new minimum after the last entry
// at the old one was bumped or evicted. The scan is O(capacity), but a
// full sweep of entries must be bumped between scans, so the amortized
// cost per observation is O(1).
func (c *CAM) advanceMin() {
	c.resetMinQueue()
	if c.size == 0 {
		c.minVal = 0
		return
	}
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
	c.minVal, c.minCount = min, n
}

// findMinSlot returns the next victim: the lowest-index slot at the
// minimum count not yet consumed from the candidate queue. The queue is
// rebuilt by one ascending scan per minimum regime, so consecutive
// replacements at the same minimum are O(1).
func (c *CAM) findMinSlot() int {
	for {
		for c.minHead < len(c.minQueue) {
			s := c.minQueue[c.minHead]
			c.minHead++
			if c.cnts[s] == c.minVal {
				return int(s)
			}
		}
		c.resetMinQueue()
		for i := 0; i < c.size; i++ {
			if c.cnts[i] == c.minVal {
				c.minQueue = append(c.minQueue, int32(i))
			}
		}
		if len(c.minQueue) == 0 {
			panic("tracker: cached minimum out of sync with entries")
		}
	}
}

func (c *CAM) resetMinQueue() {
	c.minQueue = c.minQueue[:0]
	c.minHead = 0
}

// Contains implements Tracker.
func (c *CAM) Contains(row uint64) bool { return c.lookup(row) >= 0 }

// EnableEvictionLog implements EvictionReporter.
func (c *CAM) EnableEvictionLog() { c.logEvictions = true }

// Evictions implements EvictionReporter (monotonic across Reset).
func (c *CAM) Evictions() uint64 { return c.evictions }

// LastEvicted implements EvictionReporter.
func (c *CAM) LastEvicted() uint64 {
	if c.evictLie {
		return c.evictLieRow
	}
	return c.lastEvicted
}

// Count implements Tracker.
func (c *CAM) Count(row uint64) (int64, bool) {
	if s := c.lookup(row); s >= 0 {
		return c.cnts[s], true
	}
	return 0, false
}

// Spill implements Tracker.
func (c *CAM) Spill() int64 { return c.spill }

// Len implements Tracker.
func (c *CAM) Len() int { return c.size }

// Capacity implements Tracker.
func (c *CAM) Capacity() int { return c.capacity }

// Threshold implements Tracker.
func (c *CAM) Threshold() int64 { return c.threshold }

// Reset implements Tracker.
func (c *CAM) Reset() {
	c.spill = 0
	c.size = 0
	c.minVal = 0
	c.minCount = 0
	c.resetMinQueue()
	clear(c.idx)
}
