package memctrl

import (
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
)

func testConfig() config.Config {
	cfg := config.Default()
	cfg.RowsPerBank = 1 << 10
	return cfg
}

func newCtl(mit Mitigation) (*Controller, config.Config) {
	cfg := testConfig()
	sys := dram.MustNew(cfg)
	if mit == nil {
		mit = None{}
	}
	return New(sys, mit), cfg
}

// lineFor builds a line address for bank 0/row r/column c.
func lineFor(c *Controller, row, col int) uint64 {
	return c.System().Encode(dram.Address{Row: row, Col: col})
}

func TestRowHitFasterThanMiss(t *testing.T) {
	c, cfg := newCtl(nil)
	base := int64(cfg.TRFC) + 10 // stay clear of the first refresh window
	missDone := c.Access(lineFor(c, 1, 0), false, base)
	missLat := missDone - base

	// Second access to the same row, after the bus is free: row hit.
	arrival := missDone + 10
	hitDone := c.Access(lineFor(c, 1, 1), false, arrival)
	hitLat := hitDone - arrival

	if hitLat >= missLat {
		t.Fatalf("row hit latency %d not below miss latency %d", hitLat, missLat)
	}
	st := c.Stats()
	if st.RowMisses != 1 || st.RowHits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRowConflictSlowerThanMiss(t *testing.T) {
	c, cfg := newCtl(nil)
	base := int64(cfg.TRFC) + 10
	done := c.Access(lineFor(c, 1, 0), false, base)

	// Conflicting row in the same bank, far enough in the future that
	// tRC has elapsed, so only the precharge penalty differs.
	arrival := done + int64(cfg.TRC)
	confDone := c.Access(lineFor(c, 2, 0), false, arrival)
	confLat := confDone - arrival
	missLat := int64(cfg.TRCD + cfg.TCAS + cfg.TBurst)
	if confLat != missLat+int64(cfg.TRP) {
		t.Fatalf("conflict latency %d, want %d", confLat, missLat+int64(cfg.TRP))
	}
	if c.Stats().RowConflicts != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
}

func TestBankTRCEnforcedBetweenActivations(t *testing.T) {
	c, cfg := newCtl(nil)
	base := int64(cfg.TRFC) + 10
	c.Access(lineFor(c, 1, 0), false, base)
	// Immediate conflicting access: the new ACT cannot start until tRC
	// after the first ACT (the precharge overlaps the tRC window).
	done := c.Access(lineFor(c, 2, 0), false, base+1)
	earliest := base + int64(cfg.TRC) + int64(cfg.TRCD+cfg.TCAS+cfg.TBurst)
	if done < earliest {
		t.Fatalf("second ACT finished at %d, before tRC allows (%d)", done, earliest)
	}
}

func TestBusContentionAcrossBanks(t *testing.T) {
	c, cfg := newCtl(nil)
	base := int64(cfg.TRFC) + 10
	// Two accesses to different banks, same channel, same arrival: data
	// transfers must serialize on the bus.
	l0 := c.System().Encode(dram.Address{BankID: dram.BankID{Bank: 0}, Row: 1})
	l1 := c.System().Encode(dram.Address{BankID: dram.BankID{Bank: 1}, Row: 1})
	d0 := c.Access(l0, false, base)
	d1 := c.Access(l1, false, base)
	if d1 < d0+int64(cfg.TBurst) {
		t.Fatalf("transfers overlap on the bus: %d then %d", d0, d1)
	}
}

func TestDifferentChannelsIndependent(t *testing.T) {
	c, cfg := newCtl(nil)
	base := int64(cfg.TRFC) + 10
	l0 := c.System().Encode(dram.Address{BankID: dram.BankID{Channel: 0}, Row: 1})
	l1 := c.System().Encode(dram.Address{BankID: dram.BankID{Channel: 1}, Row: 1})
	d0 := c.Access(l0, false, base)
	d1 := c.Access(l1, false, base)
	if d0 != d1 {
		t.Fatalf("parallel channels should complete together: %d vs %d", d0, d1)
	}
}

func TestRefreshDelaysAccess(t *testing.T) {
	c, cfg := newCtl(nil)
	// Arrival inside the first refresh window is served after tRFC.
	done := c.Access(lineFor(c, 1, 0), false, 0)
	minDone := int64(cfg.TRFC) + int64(cfg.TRCD+cfg.TCAS+cfg.TBurst)
	if done < minDone {
		t.Fatalf("access during refresh finished at %d, want >= %d", done, minDone)
	}
}

func TestRefreshClosesRowBuffer(t *testing.T) {
	c, cfg := newCtl(nil)
	base := int64(cfg.TRFC) + 10
	c.Access(lineFor(c, 1, 0), false, base)
	// Next access to the same row but after a full refresh interval:
	// treated as a miss, not a hit.
	c.Access(lineFor(c, 1, 1), false, base+int64(cfg.TREFI))
	st := c.Stats()
	if st.RowHits != 0 || st.RowMisses != 2 {
		t.Fatalf("stats after refresh: %+v", st)
	}
}

func TestReadWriteCounters(t *testing.T) {
	c, cfg := newCtl(nil)
	base := int64(cfg.TRFC) + 10
	c.Access(lineFor(c, 1, 0), false, base)
	c.Access(lineFor(c, 1, 1), true, base+100)
	st := c.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// penaltyMit adds a fixed access penalty.
type penaltyMit struct {
	None
	penalty int64
}

func (p penaltyMit) AccessPenalty() int64 { return p.penalty }

func TestAccessPenaltyAdded(t *testing.T) {
	cfg := testConfig()
	base := int64(cfg.TRFC) + 10

	plain, _ := newCtl(nil)
	slow, _ := newCtl(penaltyMit{penalty: 2})

	d0 := plain.Access(lineFor(plain, 1, 0), false, base)
	d1 := slow.Access(lineFor(slow, 1, 0), false, base)
	if d1 != d0+2 {
		t.Fatalf("penalty not applied: %d vs %d", d0, d1)
	}
}

// delayMit delays every activation by a fixed amount.
type delayMit struct {
	None
	delay int64
}

func (d delayMit) ActivateDelay(dram.BankID, int, int64) int64 { return d.delay }

func TestActivateDelayApplied(t *testing.T) {
	cfg := testConfig()
	base := int64(cfg.TRFC) + 10

	plain, _ := newCtl(nil)
	throttled, _ := newCtl(delayMit{delay: 50})

	d0 := plain.Access(lineFor(plain, 1, 0), false, base)
	d1 := throttled.Access(lineFor(throttled, 1, 0), false, base)
	if d1 != d0+50 {
		t.Fatalf("delay not applied: %d vs %d", d0, d1)
	}
	if throttled.Stats().ActDelayed != 50 {
		t.Fatalf("ActDelayed = %d", throttled.Stats().ActDelayed)
	}
}

func TestActivateDelayNotAppliedOnRowHit(t *testing.T) {
	cfg := testConfig()
	base := int64(cfg.TRFC) + 10
	throttled, _ := newCtl(delayMit{delay: 50})
	d0 := throttled.Access(lineFor(throttled, 1, 0), false, base)
	arrival := d0 + 10
	d1 := throttled.Access(lineFor(throttled, 1, 1), false, arrival)
	if d1-arrival != int64(cfg.TCAS+cfg.TBurst) {
		t.Fatalf("row hit latency %d includes activation delay", d1-arrival)
	}
}

// blockMit blocks the channel on every activation.
type blockMit struct {
	None
	block int64
}

func (b blockMit) OnActivate(dram.BankID, int, int, int64) ActResult {
	return ActResult{ChannelBlock: b.block}
}

func TestChannelBlockDelaysLaterAccess(t *testing.T) {
	cfg := testConfig()
	base := int64(cfg.TRFC) + 10
	c, _ := newCtl(blockMit{block: 1000})
	c.Access(lineFor(c, 1, 0), false, base) // triggers a 1000-cycle block
	// An access to a different bank in the same channel must wait.
	l := c.System().Encode(dram.Address{BankID: dram.BankID{Bank: 5}, Row: 1})
	done := c.Access(l, false, base+1)
	if done < base+1000 {
		t.Fatalf("access completed at %d despite channel block to %d", done, base+1000)
	}
}

// remapMit redirects one row.
type remapMit struct {
	None
	from, to int
}

func (r remapMit) Remap(_ dram.BankID, row int) int {
	if row == r.from {
		return r.to
	}
	if row == r.to {
		return r.from
	}
	return row
}

func TestRemapRedirectsActivation(t *testing.T) {
	cfg := testConfig()
	base := int64(cfg.TRFC) + 10
	c, _ := newCtl(remapMit{from: 1, to: 9})
	c.Access(lineFor(c, 1, 0), false, base)
	sys := c.System()
	if got := sys.ActCount(dram.BankID{}, 9); got != 1 {
		t.Fatalf("physical row 9 activations = %d, want 1", got)
	}
	if got := sys.ActCount(dram.BankID{}, 1); got != 0 {
		t.Fatalf("physical row 1 activations = %d, want 0", got)
	}
}

func TestWriteLineReadLineThroughRemap(t *testing.T) {
	c, _ := newCtl(remapMit{from: 1, to: 9})
	line := lineFor(c, 1, 0)
	c.WriteLine(line, 0x1234)
	if got := c.ReadLine(line); got != 0x1234 {
		t.Fatalf("ReadLine = %#x, want 0x1234", got)
	}
	// The data physically lives in row 9.
	if got := c.System().RowContent(dram.BankID{}, 9); got != 0x1234 {
		t.Fatalf("physical row 9 content = %#x", got)
	}
}

// epochMit records epoch callbacks.
type epochMit struct {
	None
	epochs []int64
}

func (e *epochMit) OnEpoch(now int64) { e.epochs = append(e.epochs, now) }

func TestEpochBoundariesFire(t *testing.T) {
	cfg := testConfig()
	sys := dram.MustNew(cfg)
	mit := &epochMit{}
	c := New(sys, mit)

	id := dram.BankID{}
	sys.Activate(id, 3, 0)
	if sys.ActCount(id, 3) != 1 {
		t.Fatal("setup failed")
	}
	c.Access(lineFor(c, 1, 0), false, cfg.EpochCycles*2+100)
	if len(mit.epochs) != 2 {
		t.Fatalf("fired %d epochs, want 2", len(mit.epochs))
	}
	if mit.epochs[0] != cfg.EpochCycles || mit.epochs[1] != 2*cfg.EpochCycles {
		t.Fatalf("epoch times %v", mit.epochs)
	}
	if sys.ActCount(id, 3) != 0 {
		t.Fatal("epoch boundary did not reset activation counts")
	}
	if c.Stats().Epochs != 2 {
		t.Fatalf("Epochs stat = %d", c.Stats().Epochs)
	}
}

// orderMit records the interleaving of epoch and activation callbacks
// and applies a fixed activation delay, so tests can prove a boundary
// crossed mid-access is delivered before the activation that crossed it.
type orderMit struct {
	None
	delay  int64
	block  int64
	events []orderEvent
}

type orderEvent struct {
	kind string // "epoch" or "act"
	at   int64
}

func (o *orderMit) ActivateDelay(dram.BankID, int, int64) int64 { return o.delay }

func (o *orderMit) OnEpoch(now int64) {
	o.events = append(o.events, orderEvent{"epoch", now})
}

func (o *orderMit) OnActivate(_ dram.BankID, _, _ int, now int64) ActResult {
	o.events = append(o.events, orderEvent{"act", now})
	return ActResult{ChannelBlock: o.block}
}

// TestEpochDeliveredBeforeDelayedActivation: an access arriving inside
// epoch N whose activation is throttled past the N/N+1 boundary must see
// OnEpoch fire before OnActivate — otherwise the mitigation observes an
// activation timestamped inside an epoch whose trackers have not reset.
func TestEpochDeliveredBeforeDelayedActivation(t *testing.T) {
	cfg := testConfig()
	mit := &orderMit{delay: 400}
	sys := dram.MustNew(cfg)
	c := New(sys, mit)

	// Arrive 100 cycles before the first boundary; the 400-cycle
	// throttle pushes the activation into epoch 1.
	arrival := cfg.EpochCycles - 100
	c.Access(lineFor(c, 1, 0), false, arrival)

	want := []orderEvent{
		{"epoch", cfg.EpochCycles},
		{"act", arrival + mit.delay},
	}
	if len(mit.events) != len(want) {
		t.Fatalf("events = %+v, want %+v", mit.events, want)
	}
	for i := range want {
		if mit.events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, mit.events[i], want[i])
		}
	}
	// The boundary also reset the epoch's DRAM activation counters
	// before the activation landed, so the new epoch holds exactly one.
	if got := sys.ActCount(dram.BankID{}, 1); got != 1 {
		t.Fatalf("new epoch activation count = %d, want 1", got)
	}
	if c.Stats().Epochs != 1 {
		t.Fatalf("Epochs stat = %d, want 1", c.Stats().Epochs)
	}
}

// TestEpochDeliveredBeforeBlockedAccess: a swap-style channel block that
// straddles a boundary delays the next access's first DRAM command into
// the new epoch; the boundary must be delivered before that command's
// activation is reported.
func TestEpochDeliveredBeforeBlockedAccess(t *testing.T) {
	cfg := testConfig()
	mit := &orderMit{block: 2000}
	c := New(dram.MustNew(cfg), mit)

	// First access triggers a 2000-cycle channel block ending inside
	// epoch 1; the second access arrives before the boundary but cannot
	// start until the block clears.
	c.Access(lineFor(c, 1, 0), false, cfg.EpochCycles-1000)
	c.Access(lineFor(c, 2, 0), false, cfg.EpochCycles-900)

	var kinds []string
	for _, e := range mit.events {
		kinds = append(kinds, e.kind)
	}
	want := []string{"act", "epoch", "act"}
	if len(kinds) != len(want) {
		t.Fatalf("callback order %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("callback order %v, want %v", kinds, want)
		}
	}
	if second := mit.events[2]; second.at <= cfg.EpochCycles {
		t.Fatalf("blocked activation at %d should land past the boundary %d",
			second.at, cfg.EpochCycles)
	}
}

// windowMit delays every activation by a fixed amount and records epoch
// callbacks.
type windowMit struct {
	None
	delay  int64
	epochs []int64
}

func (w *windowMit) ActivateDelay(dram.BankID, int, int64) int64 { return w.delay }
func (w *windowMit) OnEpoch(now int64)                           { w.epochs = append(w.epochs, now) }

// TestEpochAndRefreshWindowsMatchDivision places arrivals at and around
// epoch boundaries (k·EpochCycles-1, k·EpochCycles, +1) and tREFI
// windows, and compares every completion time, row hit and epoch
// callback against a model that divides at every step, as the
// controller did before it cached the next epoch boundary and the
// current tREFI window. With the activation delay, each activation lands
// a window or two past its access, so the next access re-enters a window
// the cache has left.
func TestEpochAndRefreshWindowsMatchDivision(t *testing.T) {
	cfg := testConfig()
	epoch, trefi, trfc := cfg.EpochCycles, int64(cfg.TREFI), int64(cfg.TRFC)
	skip := func(tm int64) int64 { return max(tm, tm/trefi*trefi+trfc) }
	for _, delay := range []int64{0, trefi + trefi/2} {
		mit := &windowMit{delay: delay}
		c := New(dram.MustNew(cfg), mit)
		line := lineFor(c, 1, 0)
		var arrivals []int64
		for k := int64(1); k <= 3; k++ {
			for _, d := range []int64{-trefi, -trefi / 3, -1, 0, 1, trefi / 3, trefi} {
				arrivals = append(arrivals, k*epoch+d)
			}
		}
		// The model's state: epochs fired, the bank's tRC horizon, the
		// bus, the bank's last refresh slot and whether its row is open.
		var fired, readyAt, busFree, lastSlot int64
		open := false
		advance := func(tm int64) { fired = max(fired, tm/epoch) }
		for _, a := range arrivals {
			hits := c.Stats().RowHits
			got := c.Access(line, false, a)

			advance(a)
			start := skip(a)
			advance(start)
			if slot := start / trefi; slot != lastSlot {
				open, lastSlot = false, slot
			}
			hit := open
			var dataReady int64
			if hit {
				dataReady = start + int64(cfg.TCAS)
			} else {
				s := max(start, readyAt)
				act := s
				if delay > 0 {
					act = skip(s + delay)
				}
				advance(act)
				readyAt = s + int64(cfg.TRC)
				dataReady = act + int64(cfg.TRCD) + int64(cfg.TCAS)
				open = true
			}
			busStart := max(dataReady, busFree)
			busFree = busStart + int64(cfg.TBurst)

			if want := busFree; got != want {
				t.Fatalf("delay %d, arrival %d: completion %d, want %d", delay, a, got, want)
			}
			if gotHit := c.Stats().RowHits > hits; gotHit != hit {
				t.Fatalf("delay %d, arrival %d: row hit %v, want %v", delay, a, gotHit, hit)
			}
			if int64(len(mit.epochs)) != fired {
				t.Fatalf("delay %d, arrival %d: %d epochs fired, want %d", delay, a, len(mit.epochs), fired)
			}
			for i, b := range mit.epochs {
				if b != int64(i+1)*epoch {
					t.Fatalf("delay %d: epoch %d fired at %d, want %d", delay, i, b, int64(i+1)*epoch)
				}
			}
		}
	}
}

func TestAdvanceToIdempotent(t *testing.T) {
	cfg := testConfig()
	mit := &epochMit{}
	c := New(dram.MustNew(cfg), mit)
	c.AdvanceTo(cfg.EpochCycles + 1)
	c.AdvanceTo(cfg.EpochCycles + 2)
	if len(mit.epochs) != 1 {
		t.Fatalf("fired %d epochs, want 1", len(mit.epochs))
	}
}

func TestTotalLatencyAccumulates(t *testing.T) {
	c, cfg := newCtl(nil)
	base := int64(cfg.TRFC) + 10
	d := c.Access(lineFor(c, 1, 0), false, base)
	if got := c.Stats().TotalLatency; got != d-base {
		t.Fatalf("TotalLatency = %d, want %d", got, d-base)
	}
}

func TestNoneMitigationIsTransparent(t *testing.T) {
	var m None
	if m.Remap(dram.BankID{}, 5) != 5 {
		t.Fatal("None.Remap changed the row")
	}
	if m.ActivateDelay(dram.BankID{}, 5, 0) != 0 {
		t.Fatal("None delays")
	}
	if res := m.OnActivate(dram.BankID{}, 5, 5, 0); res.ChannelBlock != 0 || res.BankBlock != 0 {
		t.Fatal("None acts")
	}
	if m.AccessPenalty() != 0 {
		t.Fatal("None penalizes")
	}
}

// TestPropertyPerBankActivationSpacing drives random same-bank traffic and
// verifies no two activations of the bank are closer than tRC.
func TestPropertyPerBankActivationSpacing(t *testing.T) {
	cfg := testConfig()
	sys := dram.MustNew(cfg)
	var actTimes []int64
	sys.Subscribe(listenerFunc(func(_ dram.BankID, _ int, now int64) {
		actTimes = append(actTimes, now)
	}))
	c := New(sys, None{})

	now := int64(cfg.TRFC) + 1
	seed := uint64(12345)
	for i := 0; i < 500; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		row := int(seed>>33) % 64
		now = c.Access(lineFor(c, row, 0), false, now)
	}
	for i := 1; i < len(actTimes); i++ {
		if gap := actTimes[i] - actTimes[i-1]; gap < int64(cfg.TRC) {
			t.Fatalf("ACTs %d and %d only %d cycles apart (tRC=%d)",
				i-1, i, gap, cfg.TRC)
		}
	}
	if len(actTimes) < 400 {
		t.Fatalf("only %d activations; pattern not conflict-heavy", len(actTimes))
	}
}

type listenerFunc func(dram.BankID, int, int64)

func (f listenerFunc) OnActivate(id dram.BankID, row int, now int64) { f(id, row, now) }

func TestClosedPagePolicy(t *testing.T) {
	cfg := testConfig()
	cfg.ClosedPage = true
	c := New(dram.MustNew(cfg), None{})
	base := int64(cfg.TRFC) + 10
	d0 := c.Access(lineFor(c, 1, 0), false, base)
	// Same row again: closed-page never hits...
	c.Access(lineFor(c, 1, 1), false, d0+int64(cfg.TRC))
	// ...and a different row never pays the conflict precharge.
	arrival := d0 + 10*int64(cfg.TRC)
	d2 := c.Access(lineFor(c, 2, 0), false, arrival)
	if lat := d2 - arrival; lat != int64(cfg.TRCD+cfg.TCAS+cfg.TBurst) {
		t.Fatalf("closed-page activate latency %d, want %d",
			lat, cfg.TRCD+cfg.TCAS+cfg.TBurst)
	}
	st := c.Stats()
	if st.RowHits != 0 || st.RowConflicts != 0 || st.RowMisses != 3 {
		t.Fatalf("closed-page stats: %+v", st)
	}
}
