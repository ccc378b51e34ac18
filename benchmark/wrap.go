package main

import (
	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/memctrl"
	"repro/internal/obs"
)

// mitCounts tallies calls into a mitigation during one sim.Run. A run is
// single-goroutine, so plain fields suffice.
type mitCounts struct {
	Remap, ActivateDelay, OnActivate, OnActivateN, BatchedActs, OnEpoch int64
}

func (c *mitCounts) add(o mitCounts) {
	c.Remap += o.Remap
	c.ActivateDelay += o.ActivateDelay
	c.OnActivate += o.OnActivate
	c.OnActivateN += o.OnActivateN
	c.BatchedActs += o.BatchedActs
	c.OnEpoch += o.OnEpoch
}

// countingFactory wraps a sim.Options.Mitigation factory so that every
// hook call on the built defense is counted into n. A nil factory (the
// unprotected baseline) wraps memctrl.None, which sim would use anyway.
func countingFactory(f func(*dram.System) memctrl.Mitigation, n *mitCounts) func(*dram.System) memctrl.Mitigation {
	return func(sys *dram.System) memctrl.Mitigation {
		var m memctrl.Mitigation = memctrl.None{}
		if f != nil {
			if built := f(sys); built != nil {
				m = built
			}
		}
		return wrapCounting(m, n)
	}
}

// selfChecking is the observability and paranoid-mode surface sim.Run
// probes a mitigation for. The defenses implement all three methods or
// none.
type selfChecking interface {
	EnableObs(*obs.Recorder)
	EnableParanoid(*invariant.Engine)
	Err() error
}

// wrapCounting returns a counting wrapper over m that implements exactly
// the optional interfaces m does (memctrl.Batcher, selfChecking), so the
// controller and sim.Run treat the wrapper as they would m. The one
// thing it hides is m's concrete type: sim reports RRS swap counts only
// for a bare *core.RRS.
func wrapCounting(m memctrl.Mitigation, n *mitCounts) memctrl.Mitigation {
	c := &counting{inner: m, n: n}
	b, batches := m.(memctrl.Batcher)
	s, checks := m.(selfChecking)
	switch {
	case batches && checks:
		return struct {
			countingBatcher
			selfChecking
		}{countingBatcher{c, b}, s}
	case batches:
		return countingBatcher{c, b}
	case checks:
		return struct {
			*counting
			selfChecking
		}{c, s}
	default:
		return c
	}
}

// counting forwards memctrl.Mitigation, counting each call.
type counting struct {
	inner memctrl.Mitigation
	n     *mitCounts
}

func (c *counting) Remap(bank dram.BankID, row int) int {
	c.n.Remap++
	return c.inner.Remap(bank, row)
}

func (c *counting) ActivateDelay(bank dram.BankID, row int, now int64) int64 {
	c.n.ActivateDelay++
	return c.inner.ActivateDelay(bank, row, now)
}

func (c *counting) OnActivate(bank dram.BankID, row, physRow int, now int64) memctrl.ActResult {
	c.n.OnActivate++
	return c.inner.OnActivate(bank, row, physRow, now)
}

func (c *counting) AccessPenalty() int64 { return c.inner.AccessPenalty() }

func (c *counting) OnEpoch(now int64) {
	c.n.OnEpoch++
	c.inner.OnEpoch(now)
}

// countingBatcher adds the counted memctrl.Batcher hook.
type countingBatcher struct {
	*counting
	b memctrl.Batcher
}

func (c countingBatcher) OnActivateN(bank dram.BankID, row, physRow int, now int64, n int64) {
	c.n.OnActivateN++
	c.n.BatchedActs += n
	c.b.OnActivateN(bank, row, physRow, now, n)
}
