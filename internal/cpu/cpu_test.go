package cpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// sliceReader replays a fixed record list.
type sliceReader struct {
	recs []trace.Record
	i    int
}

func (s *sliceReader) Next() (trace.Record, bool) {
	if s.i >= len(s.recs) {
		return trace.Record{}, false
	}
	r := s.recs[s.i]
	s.i++
	return r, true
}

func cfg() config.Config { return config.Default() }

func TestIssueTimesFollowFetchRate(t *testing.T) {
	// Gap of 799 + 1 access = 800 instructions at 8 inst/bus-cycle = 100
	// bus cycles apart.
	r := &sliceReader{recs: []trace.Record{
		{Gap: 799, Line: 1},
		{Gap: 799, Line: 2},
	}}
	c := New(0, cfg(), r, 0)
	_, t0 := c.Issue()
	c.Complete(t0 + 10)
	_, t1 := c.Issue()
	if t0 != 100 {
		t.Fatalf("first issue at %d, want 100", t0)
	}
	if t1 != 200 {
		t.Fatalf("second issue at %d, want 200", t1)
	}
}

func TestROBBackPressure(t *testing.T) {
	// A load with a huge completion time, followed by an access more than
	// ROBSize instructions later: fetch must stall until the load returns.
	r := &sliceReader{recs: []trace.Record{
		{Gap: 0, Line: 1},
		{Gap: 500, Line: 2}, // 501 instructions later > 192 ROB
	}}
	c := New(0, cfg(), r, 0)
	_, t0 := c.Issue()
	c.Complete(t0 + 100000)
	_, t1 := c.Issue()
	if t1 < t0+100000 {
		t.Fatalf("second access at %d ignored ROB stall (load done at %d)", t1, t0+100000)
	}
	if c.StallCycles == 0 {
		t.Fatal("stall cycles not recorded")
	}
}

func TestNoStallWithinROBWindow(t *testing.T) {
	// Second access within the ROB window: issues at fetch rate even
	// though the first load is still outstanding.
	r := &sliceReader{recs: []trace.Record{
		{Gap: 0, Line: 1},
		{Gap: 50, Line: 2}, // 51 instructions later < 192
	}}
	c := New(0, cfg(), r, 0)
	_, t0 := c.Issue()
	c.Complete(t0 + 100000)
	_, t1 := c.Issue()
	if t1 >= t0+100000 {
		t.Fatal("MLP lost: second access waited for first load")
	}
}

func TestBudgetStopsCore(t *testing.T) {
	r := &sliceReader{recs: []trace.Record{
		{Gap: 10, Line: 1},
		{Gap: 10, Line: 2},
		{Gap: 10, Line: 3},
	}}
	c := New(0, cfg(), r, 25)
	c.Issue()
	if c.Done() {
		t.Fatal("done too early")
	}
	c.Issue() // pos = 22 -> not yet
	c.Issue() // pos = 33 >= 25 -> done
	if !c.Done() {
		t.Fatal("budget not enforced")
	}
	if _, ok := c.NextIssueTime(); ok {
		t.Fatal("core issues after done")
	}
}

func TestTraceEndStopsIssuing(t *testing.T) {
	r := &sliceReader{recs: []trace.Record{{Gap: 0, Line: 1}}}
	c := New(0, cfg(), r, 0)
	c.Issue()
	if _, ok := c.NextIssueTime(); ok {
		t.Fatal("core issues past end of trace")
	}
}

func TestFinishTimeCoversOutstandingLoadsAndBudget(t *testing.T) {
	r := &sliceReader{recs: []trace.Record{{Gap: 0, Line: 1}}}
	c := New(0, cfg(), r, 801)
	_, t0 := c.Issue()
	c.Complete(t0 + 5000)
	f := c.FinishTime()
	// Must wait for the load (t0+5000) plus 800 remaining instructions
	// at 8 per bus cycle = 100 cycles.
	if f != t0+5000+100 {
		t.Fatalf("finish = %d, want %d", f, t0+5000+100)
	}
}

func TestInstructionsCounted(t *testing.T) {
	r := &sliceReader{recs: []trace.Record{
		{Gap: 9, Line: 1},
		{Gap: 19, Line: 2},
	}}
	c := New(0, cfg(), r, 0)
	c.Issue()
	c.Issue()
	if c.Instructions() != 30 {
		t.Fatalf("instructions = %d, want 30", c.Instructions())
	}
}

func TestCycleLimitStopsCore(t *testing.T) {
	r := &sliceReader{recs: []trace.Record{
		{Gap: 799, Line: 1},
		{Gap: 7999, Line: 2}, // would issue at bus cycle 1100
	}}
	c := New(0, cfg(), r, 1<<40) // effectively unbounded budget
	c.Limit = 500
	if _, ok := c.NextIssueTime(); !ok {
		t.Fatal("first access within limit rejected")
	}
	c.Issue() // at cycle 100
	if _, ok := c.NextIssueTime(); ok {
		t.Fatal("access beyond the cycle limit issued")
	}
	if !c.Done() {
		t.Fatal("core not done after limit")
	}
	if f := c.FinishTime(); f != 500 {
		t.Fatalf("FinishTime = %d, want the limit (500)", f)
	}
}

func TestFinishTimeWithoutLimitExtrapolatesBudget(t *testing.T) {
	r := &sliceReader{recs: []trace.Record{{Gap: 0, Line: 1}}}
	c := New(0, cfg(), r, 8001)
	_, t0 := c.Issue()
	// 8000 remaining instructions at 8/bus-cycle = 1000 cycles.
	if f := c.FinishTime(); f != t0+1000 {
		t.Fatalf("FinishTime = %d, want %d", f, t0+1000)
	}
}
