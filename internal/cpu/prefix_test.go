package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// refCore is the O(loads) ROB model the prefix scan replaced: every
// outstanding load is checked on every issue, and loads retire as soon
// as their data has returned, wherever they sit in the window.
type refCore struct {
	reader      trace.Reader
	rate        float64
	rob         int64
	clock, pos  int64
	loads       []pending
	nextRec     trace.Record
	haveNext    bool
	done        bool
	Budget      int64
	Limit       int64
	StallCycles int64
}

func newRefCore(cfg config.Config, r trace.Reader, budget int64) *refCore {
	c := &refCore{reader: r, rate: instPerBusCycle(cfg), rob: int64(cfg.ROBSize), Budget: budget}
	c.nextRec, c.haveNext = r.Next()
	return c
}

func (c *refCore) issueState() (int64, int64) {
	target := c.pos + int64(c.nextRec.Gap) + 1
	t := c.clock + int64(float64(target-c.pos)/c.rate)
	for _, p := range c.loads {
		if target-p.pos >= c.rob && p.done > t {
			t = p.done
		}
	}
	return t, target
}

func (c *refCore) NextIssueTime() (int64, bool) {
	if c.done || !c.haveNext {
		return 0, false
	}
	t, _ := c.issueState()
	if c.Limit > 0 && t > c.Limit {
		c.done = true
		return 0, false
	}
	return t, true
}

func (c *refCore) Issue() (trace.Record, int64) {
	t, target := c.issueState()
	if t > c.clock {
		c.StallCycles += t - c.clock - int64(float64(target-c.pos)/c.rate)
	}
	rec := c.nextRec
	c.clock = t
	c.pos = target
	keep := c.loads[:0]
	for _, p := range c.loads {
		if p.done > c.clock {
			keep = append(keep, p)
		}
	}
	c.loads = keep
	c.nextRec, c.haveNext = c.reader.Next()
	if c.Budget > 0 && c.pos >= c.Budget {
		c.done = true
	}
	return rec, t
}

func (c *refCore) Complete(pos, done int64) {
	c.loads = append(c.loads, pending{pos: pos, done: done})
}

func (c *refCore) FinishTime() int64 {
	t := c.clock
	for _, p := range c.loads {
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

// randomTrace mixes dense bursts (many loads inside one ROB window),
// medium gaps around the ROB size and long gaps, with a share of stores.
func randomTrace(rng *rand.Rand, n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		var gap int
		switch rng.Intn(4) {
		case 0:
			gap = rng.Intn(8)
		case 1:
			gap = rng.Intn(400)
		case 2:
			gap = 150 + rng.Intn(100)
		default:
			gap = rng.Intn(5000)
		}
		recs[i] = trace.Record{Gap: uint32(gap), Line: uint64(i), Write: rng.Intn(4) == 0}
	}
	return recs
}

// TestPrefixScanMatchesReference drives the core and the reference side
// by side, as the simulator does (next issue time, issue, complete for
// loads), over random gaps, latencies, budgets and cycle limits: every
// issue time and record, the stall count and the finish time must agree
// exactly. Now and then the next issue time is asked between an issue
// and its completion and not asked again, so the next Issue must not
// reuse a cached answer that the completion made stale.
func TestPrefixScanMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := randomTrace(rng, 50+rng.Intn(400))
		var budget, limit int64
		if rng.Intn(2) == 0 {
			budget = int64(rng.Intn(200_000))
		}
		if rng.Intn(2) == 0 {
			limit = int64(rng.Intn(40_000))
		}
		c := New(0, cfg(), &sliceReader{recs: recs}, budget)
		ref := newRefCore(cfg(), &sliceReader{recs: recs}, budget)
		c.Limit, ref.Limit = limit, limit
		next := func(step int) bool {
			at, ok := c.NextIssueTime()
			refAt, refOK := ref.NextIssueTime()
			if at != refAt || ok != refOK {
				t.Fatalf("seed %d step %d: NextIssueTime = (%d, %v), reference (%d, %v)", seed, step, at, ok, refAt, refOK)
			}
			return ok
		}
		asked, ok := false, false
		for step := 0; ; step++ {
			if !asked {
				ok = next(step)
			}
			if !ok {
				break
			}
			rec, got := c.Issue()
			refRec, want := ref.Issue()
			if rec != refRec || got != want {
				t.Fatalf("seed %d step %d: Issue = (%+v, %d), reference (%+v, %d)", seed, step, rec, got, refRec, want)
			}
			if asked = rng.Intn(4) == 0; asked {
				ok = next(step)
			}
			if !rec.Write {
				var lat int64
				switch rng.Intn(5) {
				case 0:
					lat = 0
				case 1:
					lat = int64(rng.Intn(50))
				case 2:
					lat = 20_000 + int64(rng.Intn(20_000))
				default:
					lat = int64(rng.Intn(3000))
				}
				c.Complete(got + lat)
				ref.Complete(ref.pos, want+lat)
			}
		}
		if c.StallCycles != ref.StallCycles {
			t.Fatalf("seed %d: StallCycles = %d, reference %d", seed, c.StallCycles, ref.StallCycles)
		}
		if f, rf := c.FinishTime(), ref.FinishTime(); f != rf {
			t.Fatalf("seed %d: FinishTime = %d, reference %d", seed, f, rf)
		}
		if c.Instructions() != ref.pos || c.Done() != ref.done {
			t.Fatalf("seed %d: instructions %d done %v, reference %d %v", seed, c.Instructions(), c.Done(), ref.pos, ref.done)
		}
	}
}

// loopReader replays a record list forever.
type loopReader struct {
	recs []trace.Record
	i    int
}

func (l *loopReader) Next() (trace.Record, bool) {
	r := l.recs[l.i%len(l.recs)]
	l.i++
	return r, true
}

// TestIssueAllocFree pins the steady-state issue path at zero
// allocations: once the load list has grown to the ROB's worth of
// loads, retiring and completing reuse its storage.
func TestIssueAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New(0, cfg(), &loopReader{recs: randomTrace(rng, 256)}, 0)
	step := func() {
		c.NextIssueTime()
		if rec, at := c.Issue(); !rec.Write {
			c.Complete(at + int64(rng.Intn(700)))
		}
	}
	for i := 0; i < 10_000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			step()
		}
	}); avg != 0 {
		t.Fatalf("issue path allocates %.2f allocs/run, want 0", avg)
	}
}
