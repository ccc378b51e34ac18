// Package memctrl implements the memory controller: address decode,
// FCFS scheduling with bank-level parallelism, refresh windows, and the
// mitigation hooks where Row Hammer defenses plug in (the RRS paper puts
// the HRT and RIT inside the memory controller).
//
// Requests must be submitted in non-decreasing arrival-time order; the
// controller reserves bank, bus and refresh-free spans greedily in that
// order, which reproduces USIMM's FCFS arbitration (the oldest request
// gets the earliest feasible slot; younger requests to other banks may
// still proceed in parallel).
package memctrl

import (
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/obs"
)

// ActResult tells the controller what a mitigation did in response to an
// activation.
type ActResult struct {
	// ChannelBlock is how many bus cycles the whole channel is busy with
	// mitigation data transfers (RRS row-swaps occupy the shared bus).
	ChannelBlock int64
	// BankBlock is how many bus cycles this bank alone is busy
	// (victim-refresh activations in victim-focused mitigation).
	BankBlock int64
	// Headroom is a promise the mitigation makes to the controller: the
	// next Headroom activations of this same (bank, logical row, physical
	// row) are guaranteed to be inert — no trigger, no blocking, no state
	// change other than the activation count — provided they are reported
	// in order, before any other activation in the same bank, via the
	// Batcher extension. The controller uses it to consult the mitigation
	// once per same-row activation burst instead of once per activation.
	// Mitigations that cannot make the promise leave it 0. It is only
	// honored for mitigations implementing Batcher.
	Headroom int64
}

// Mitigation is the hook interface for Row Hammer defenses. The
// no-mitigation baseline is the zero-behaviour None type.
type Mitigation interface {
	// Remap translates a logical row to its current physical row in the
	// bank (the RIT lookup done on every access). Defenses without
	// indirection return the row unchanged.
	Remap(bank dram.BankID, row int) int
	// ActivateDelay returns how many bus cycles the pending activation of
	// the logical row must be delayed (BlockHammer throttling); 0 for
	// defenses that never delay.
	ActivateDelay(bank dram.BankID, row int, now int64) int64
	// OnActivate runs after an activation of physRow caused by an access
	// to logical row, and returns any blocking the mitigation performed.
	OnActivate(bank dram.BankID, row, physRow int, now int64) ActResult
	// AccessPenalty is added to the latency of every memory access (the
	// RIT lookup latency, 4 CPU cycles = 2 bus cycles in the paper).
	AccessPenalty() int64
	// OnEpoch is called once per refresh epoch boundary.
	OnEpoch(now int64)
}

// Batcher is an optional Mitigation extension for activation-burst
// batching. When the mitigation implements it, the controller withholds
// up to ActResult.Headroom consecutive same-row activation notifications
// per bank and later delivers them in one OnActivateN call — always
// before any other activation in that bank is reported and before any
// epoch boundary, so the mitigation observes the exact same activation
// sequence, just run-length encoded.
type Batcher interface {
	// OnActivateN reports n deferred activations of (bank, row, physRow),
	// all within previously granted headroom (so none of them triggers).
	OnActivateN(bank dram.BankID, row, physRow int, now int64, n int64)
}

// noneHeadroom is the unbounded headroom the None baseline grants (it
// has no per-activation behavior at all).
const noneHeadroom = int64(1) << 62

// None is the baseline without any Row Hammer mitigation.
type None struct{}

// Remap implements Mitigation.
func (None) Remap(_ dram.BankID, row int) int { return row }

// ActivateDelay implements Mitigation.
func (None) ActivateDelay(dram.BankID, int, int64) int64 { return 0 }

// OnActivate implements Mitigation.
func (None) OnActivate(dram.BankID, int, int, int64) ActResult {
	return ActResult{Headroom: noneHeadroom}
}

// OnActivateN implements Batcher.
func (None) OnActivateN(dram.BankID, int, int, int64, int64) {}

// AccessPenalty implements Mitigation.
func (None) AccessPenalty() int64 { return 0 }

// OnEpoch implements Mitigation.
func (None) OnEpoch(int64) {}

// Stats aggregates controller activity.
type Stats struct {
	Reads        int64
	Writes       int64
	RowHits      int64
	RowMisses    int64 // row buffer closed
	RowConflicts int64 // different row open
	TotalLatency int64 // sum of (completion - arrival) over accesses
	ActDelayed   int64 // cycles of BlockHammer-style activation delay
	Epochs       int64
}

// pendingActs is one bank's deferred activation-burst state.
type pendingActs struct {
	id       dram.BankID
	row      int
	physRow  int
	n        int64 // deferred activations not yet delivered
	headroom int64 // remaining activations covered by the grant
	lastAt   int64 // time of the most recent deferred activation
}

// Controller is the memory controller for one DRAM system.
type Controller struct {
	sys *dram.System
	cfg config.Config
	mit Mitigation

	// batcher is non-nil when mit supports activation-burst batching;
	// pend then holds one deferred-burst slot per bank.
	batcher Batcher
	pend    []pendingActs

	// epochSlot is the current epoch's index and nextEpoch its end,
	// the first cycle AdvanceTo has work at.
	epochSlot int64
	nextEpoch int64
	stats     Stats
	epochHook func(now int64)

	// rec is the observability recorder (nil when disabled). The
	// controller stamps its clock as simulated time advances, records
	// epoch-boundary events, and feeds the stall/access histograms; every
	// hook is behind one nil test so the disabled path stays free.
	rec *obs.Recorder
}

// New creates a controller over sys using mitigation mit (use None for the
// baseline).
func New(sys *dram.System, mit Mitigation) *Controller {
	c := &Controller{sys: sys, cfg: sys.Config(), mit: mit}
	c.nextEpoch = c.cfg.EpochCycles
	if b, ok := mit.(Batcher); ok {
		c.batcher = b
		c.pend = make([]pendingActs, c.cfg.Channels*c.cfg.Ranks*c.cfg.Banks)
	}
	return c
}

// SetRecorder attaches an observability recorder; nil detaches. The
// controller owns the recorder's clock: it is set to each activation
// time before mitigation hooks run and to each boundary before OnEpoch,
// so components without a time argument can stamp events via RecordNow.
func (c *Controller) SetRecorder(rec *obs.Recorder) { c.rec = rec }

// Stats returns a snapshot of controller statistics.
func (c *Controller) Stats() Stats { return c.stats }

// System returns the underlying DRAM system.
func (c *Controller) System() *dram.System { return c.sys }

// Mitigation returns the installed mitigation.
func (c *Controller) Mitigation() Mitigation { return c.mit }

// AdvanceTo fires epoch boundaries up to time now. Access calls this
// automatically; simulations call it at the end of a run to close the
// final epoch.
func (c *Controller) AdvanceTo(now int64) {
	if now >= c.nextEpoch {
		c.advance(now)
	}
}

// advance fires the boundaries from nextEpoch up to now.
func (c *Controller) advance(now int64) {
	slot := now / c.cfg.EpochCycles
	// Deferred activation bursts belong to the closing epoch; deliver
	// them before the mitigation resets its trackers.
	c.Flush()
	for c.epochSlot < slot {
		c.epochSlot++
		boundary := c.epochSlot * c.cfg.EpochCycles
		if c.epochHook != nil {
			c.epochHook(boundary)
		}
		if rec := c.rec; rec != nil {
			rec.SetNow(boundary)
			rec.Record(obs.KindEpoch, -1, uint64(c.stats.Epochs), 0, boundary, 0)
		}
		c.mit.OnEpoch(boundary)
		c.sys.ResetEpoch()
		c.stats.Epochs++
	}
	c.nextEpoch = (slot + 1) * c.cfg.EpochCycles
}

// Flush delivers all deferred activation notifications to the
// mitigation. The controller flushes automatically whenever ordering
// requires it (a different activation in the same bank, an epoch
// boundary); call it manually before inspecting mitigation-internal
// state (e.g., tracker counts) mid-run.
func (c *Controller) Flush() {
	for i := range c.pend {
		c.flushPending(&c.pend[i])
	}
}

func (c *Controller) flushPending(p *pendingActs) {
	if p.n > 0 {
		if rec := c.rec; rec != nil {
			rec.SetNow(p.lastAt)
		}
		c.batcher.OnActivateN(p.id, p.row, p.physRow, p.lastAt, p.n)
		p.n = 0
	}
	p.headroom = 0
}

// SetEpochHook installs a function invoked at every epoch boundary before
// the mitigation's OnEpoch and the DRAM counter reset — the point where
// per-epoch statistics (e.g., rows with 800+ activations) are sampled.
func (c *Controller) SetEpochHook(fn func(now int64)) { c.epochHook = fn }

// Access performs a read or write of the cache line at the given arrival
// time (bus cycles) and returns its completion time. Arrival times must be
// non-decreasing across calls.
func (c *Controller) Access(line uint64, write bool, arrival int64) int64 {
	c.AdvanceTo(arrival)

	addr := c.sys.Decode(line)
	physRow := c.mit.Remap(addr.BankID, addr.Row)
	b := c.sys.BankState(addr.BankID)

	start := arrival
	if blocked := c.sys.ChannelBlockedUntil(addr.Channel); blocked > start {
		start = blocked
	}
	start = c.sys.SkipRefresh(start)
	if rec := c.rec; rec != nil && start > arrival {
		rec.Observe(obs.HistStall, start-arrival)
	}
	// Channel blocking and refresh windows can push the first DRAM
	// command past the next epoch boundary; deliver the boundary before
	// the command so the mitigation never observes an activation
	// timestamped inside an epoch whose OnEpoch has not fired.
	c.AdvanceTo(start)

	// A refresh window that has elapsed since the bank's last command
	// closes the row buffer.
	if slot, _ := c.sys.RefreshWindow(start); slot != b.LastRefSlot {
		b.OpenRow = dram.NoRow
		b.LastRefSlot = slot
	}

	var dataReady int64
	switch {
	case b.OpenRow == physRow:
		// Row hit: a column command, not gated by tRC.
		c.stats.RowHits++
		dataReady = start + int64(c.cfg.TCAS)
	case b.OpenRow == dram.NoRow:
		c.stats.RowMisses++
		dataReady = c.activate(addr.BankID, b, addr.Row, physRow, start)
	default:
		c.stats.RowConflicts++
		dataReady = c.activate(addr.BankID, b, addr.Row, physRow, start+int64(c.cfg.TRP))
	}
	if c.cfg.ClosedPage {
		// Auto-precharge after the column access: the next access to the
		// bank always activates, but never pays the conflict precharge.
		b.OpenRow = dram.NoRow
	}

	busStart := c.sys.ReserveBus(addr.Channel, dataReady)
	completion := busStart + int64(c.cfg.TBurst) + c.mit.AccessPenalty()

	if write {
		c.stats.Writes++
		b.StatWrites++
		// Writes update the logical row's content tag so swap-correctness
		// tests can observe data flowing through the indirection.
	} else {
		c.stats.Reads++
		b.StatReads++
	}
	c.stats.TotalLatency += completion - arrival
	if rec := c.rec; rec != nil {
		rec.Observe(obs.HistAccess, completion-arrival)
	}
	return completion
}

// activate performs the ACT for (bank, physRow) no earlier than start and
// returns when column data can be ready. It runs the mitigation hooks:
// activation delay first (throttling), then post-activation actions.
func (c *Controller) activate(id dram.BankID, b *dram.Bank, row, physRow int, start int64) int64 {
	// tRC gates activate-to-activate spacing in the bank.
	if b.ReadyAt > start {
		start = b.ReadyAt
	}
	actAt := start
	if d := c.mit.ActivateDelay(id, row, start); d > 0 {
		c.stats.ActDelayed += d
		actAt = c.sys.SkipRefresh(start + d)
	}
	// tRC gating and mitigation throttling can push the activation past
	// the next epoch boundary in turn; fire any boundary the delay
	// crossed so DRAM counters reset and trackers clear before the
	// activation is recorded against the new epoch.
	c.AdvanceTo(actAt)
	if rec := c.rec; rec != nil {
		// The clock feeds RecordNow in the mitigation's RIT/tracker hooks.
		rec.SetNow(actAt)
	}
	c.sys.Activate(id, physRow, actAt)
	// A throttled (deprioritized) activation waits without holding the
	// bank: BlockHammer's scheduler services other rows during the delay,
	// so the bank becomes available tRC after the undelayed slot. The
	// throttled request itself completes from its delayed activation.
	b.ReadyAt = start + int64(c.cfg.TRC)

	if c.batcher != nil {
		p := &c.pend[(id.Channel*c.cfg.Ranks+id.Rank)*c.cfg.Banks+id.Bank]
		if p.headroom > 0 && p.row == row && p.physRow == physRow {
			// Within granted headroom: the notification is inert, so
			// just extend the pending burst.
			p.n++
			p.headroom--
			p.lastAt = actAt
			return actAt + int64(c.cfg.TRCD) + int64(c.cfg.TCAS)
		}
		// A different row (or exhausted grant): deliver the pending burst
		// first so the mitigation sees activations in order.
		c.flushPending(p)
		res := c.mit.OnActivate(id, row, physRow, actAt)
		*p = pendingActs{id: id, row: row, physRow: physRow, headroom: res.Headroom, lastAt: actAt}
		if res.BankBlock > 0 {
			b.ReadyAt += res.BankBlock
		}
		if res.ChannelBlock > 0 {
			c.sys.BlockChannel(id.Channel, actAt+res.ChannelBlock)
		}
		return actAt + int64(c.cfg.TRCD) + int64(c.cfg.TCAS)
	}

	res := c.mit.OnActivate(id, row, physRow, actAt)
	if res.BankBlock > 0 {
		b.ReadyAt += res.BankBlock
	}
	if res.ChannelBlock > 0 {
		c.sys.BlockChannel(id.Channel, actAt+res.ChannelBlock)
	}
	return actAt + int64(c.cfg.TRCD) + int64(c.cfg.TCAS)
}

// WriteLine stores a content tag into the *logical* row containing the
// line, going through the mitigation's remap — the way tests verify that
// swapped data stays reachable.
func (c *Controller) WriteLine(line uint64, tag uint64) {
	addr := c.sys.Decode(line)
	phys := c.mit.Remap(addr.BankID, addr.Row)
	c.sys.SetRowContent(addr.BankID, phys, tag)
}

// ReadLine loads the content tag of the logical row containing the line.
func (c *Controller) ReadLine(line uint64) uint64 {
	addr := c.sys.Decode(line)
	phys := c.mit.Remap(addr.BankID, addr.Row)
	return c.sys.RowContent(addr.BankID, phys)
}
