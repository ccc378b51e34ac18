// Package cpu models the trace-driven out-of-order cores of the paper's
// evaluation (Table 2: 8 cores, 192-entry ROB, fetch/retire width 4 at
// 3.2 GHz) with a ROB-occupancy timing model: the core fetches
// instructions at full width, loads that miss the LLC occupy the ROB until
// data returns, and fetch stalls when the ROB fills behind the oldest
// outstanding load. Stores are posted and never stall retirement.
//
// This event-driven model replaces USIMM's cycle loop; relative IPC — the
// paper's figure of merit — is preserved because all memory-side queueing
// and blocking comes from the detailed memory model.
package cpu

import (
	"repro/internal/config"
	"repro/internal/trace"
)

// instPerBusCycle is how many instructions one core can retire per
// memory-bus cycle (fetch width x CPU cycles per bus cycle).
func instPerBusCycle(cfg config.Config) float64 {
	return float64(cfg.FetchWidth) * config.CPUCyclesPerBusCycle
}

// pending is an outstanding load.
type pending struct {
	pos  int64 // instruction position of the load
	done int64 // bus cycle its data arrives
}

// Core is one trace-driven core. All times are memory-bus cycles.
type Core struct {
	ID int

	reader trace.Reader
	rate   float64 // instructions per bus cycle
	rob    int64

	clock    int64 // core-local time
	pos      int64 // instructions fetched so far
	nextRec  trace.Record
	haveNext bool
	done     bool

	// loads[head:] are the outstanding loads in position order. Those
	// that can hold fetch back (target-pos >= rob) form a prefix, so the
	// issue scan stops at the first load inside the ROB window. A load
	// that returned while still inside the window stays until it leaves
	// it; its data time is at most the clock, so it never raises an
	// issue or finish time.
	loads []pending
	head  int

	// next caches issueState for the Issue that follows NextIssueTime;
	// Issue and Complete clear nextOK.
	next   issue
	nextOK bool

	// Budget is how many instructions the core executes before reporting
	// done (rate mode re-reads the trace until every core finishes).
	Budget int64
	// Limit optionally stops the core once its clock passes this bus
	// cycle (time-bounded runs covering a fixed number of epochs).
	Limit int64

	// Stats.
	StallCycles int64
}

// New creates a core reading its memory accesses from r.
func New(id int, cfg config.Config, r trace.Reader, budget int64) *Core {
	c := &Core{
		ID:     id,
		reader: r,
		rate:   instPerBusCycle(cfg),
		rob:    int64(cfg.ROBSize),
		Budget: budget,
	}
	c.nextRec, c.haveNext = r.Next()
	return c
}

// Done reports whether the core has retired its instruction budget.
func (c *Core) Done() bool { return c.done }

// Instructions returns how many instructions the core has completed.
func (c *Core) Instructions() int64 { return c.pos }

// issue is when and where the next access issues, and how many of the
// oldest loads it retires.
type issue struct {
	t, target int64
	retire    int
}

// NextIssueTime returns the bus cycle at which the core's next memory
// access will be issued, considering fetch bandwidth and ROB back
// pressure. It is exact given the completions recorded so far. Returns
// false when the core has no further accesses (trace end or budget).
func (c *Core) NextIssueTime() (int64, bool) {
	if c.done || !c.haveNext {
		return 0, false
	}
	c.next, c.nextOK = c.issueState(), true
	if c.Limit > 0 && c.next.t > c.Limit {
		c.done = true
		return 0, false
	}
	return c.next.t, true
}

// issueState computes when the next record's access issues, the
// instruction position it occupies, and the loads it retires.
func (c *Core) issueState() issue {
	target := c.pos + int64(c.nextRec.Gap) + 1 // the access is one instruction
	// Time to fetch up to target at full rate.
	t := c.clock + int64(float64(target-c.pos)/c.rate)
	// ROB: fetch cannot run further than rob instructions past the
	// oldest incomplete load. Only the prefix of loads at least rob
	// instructions back can block; all of them retire by t.
	i := c.head
	for ; i < len(c.loads) && target-c.loads[i].pos >= c.rob; i++ {
		if d := c.loads[i].done; d > t {
			t = d
		}
	}
	return issue{t: t, target: target, retire: i - c.head}
}

// Issue commits the pending record: the access enters the memory system at
// the returned time. The caller must then call Complete with the memory
// completion time (for loads) or Posted (for stores).
func (c *Core) Issue() (rec trace.Record, at int64) {
	is := c.next
	if !c.nextOK {
		is = c.issueState()
	}
	c.nextOK = false
	t, target := is.t, is.target
	if t > c.clock {
		c.StallCycles += t - c.clock - int64(float64(target-c.pos)/c.rate)
	}
	rec = c.nextRec
	c.clock = t
	c.pos = target
	c.head += is.retire
	if c.head == len(c.loads) {
		c.loads, c.head = c.loads[:0], 0
	}

	c.nextRec, c.haveNext = c.reader.Next()
	if c.Budget > 0 && c.pos >= c.Budget {
		c.done = true
	}
	return rec, t
}

// Complete records the data-return time of the load issued last.
func (c *Core) Complete(done int64) {
	if len(c.loads) == cap(c.loads) && c.head > 0 {
		n := copy(c.loads, c.loads[c.head:])
		c.loads, c.head = c.loads[:n], 0
	}
	c.loads = append(c.loads, pending{pos: c.pos, done: done})
	c.nextOK = false
}

// Pos returns the instruction position of the most recently issued access.
func (c *Core) Pos() int64 { return c.pos }

// FinishTime estimates when the core retires its remaining instructions
// after the last access: remaining instructions at full rate, but not
// before the last outstanding load returns. Time-bounded cores (Limit set)
// finish at the limit — their leftover budget is not simulated.
func (c *Core) FinishTime() int64 {
	t := c.clock
	for _, p := range c.loads[c.head:] {
		if p.done > t {
			t = p.done
		}
	}
	if c.Budget > c.pos {
		rem := int64(float64(c.Budget-c.pos) / c.rate)
		if c.Limit > 0 && t+rem > c.Limit {
			if t < c.Limit {
				t = c.Limit
			}
			return t
		}
		t += rem
	}
	return t
}
