// Package dram models a DDR4 memory system at the granularity the RRS
// paper's evaluation needs: per-bank row-buffer state and activate timing,
// per-channel shared data bus, rank-level refresh windows, per-row
// activation counts within a refresh epoch, and a sparse per-row content
// tag that lets tests verify row-swap data movement end to end.
//
// The model is event-driven rather than cycle-stepped: the memory
// controller (package memctrl) reserves bank, bus and refresh-free time
// spans in request-arrival order, which reproduces FCFS scheduling with
// bank-level parallelism. All times are in memory-bus cycles (1.6 GHz).
package dram

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/config"
	"repro/internal/invariant"
)

// NoRow marks a closed row buffer.
const NoRow = -1

// BankID identifies one bank in the system.
type BankID struct {
	Channel int
	Rank    int
	Bank    int
}

// String implements fmt.Stringer.
func (b BankID) String() string {
	return fmt.Sprintf("ch%d.rk%d.bk%d", b.Channel, b.Rank, b.Bank)
}

// Address is a fully decoded DRAM coordinate for one cache line.
type Address struct {
	BankID
	Row int
	Col int
}

// ActListener observes every row activation (including those caused by
// mitigations: victim refreshes and swap transfers). The Row Hammer fault
// model and RRS trackers subscribe here.
type ActListener interface {
	OnActivate(bank BankID, row int, now int64)
}

// Bank holds one bank's simulation state.
type Bank struct {
	// OpenRow is the row in the row buffer, or NoRow.
	OpenRow int
	// ReadyAt is the earliest bus cycle at which the next row command
	// (ACT/PRE) may start, enforcing tRC between activations.
	ReadyAt int64
	// LastRefSlot is the index of the last tREFI window that closed the
	// row buffer (refresh closes open rows).
	LastRefSlot int64

	// log holds the rows activated since the last fold. Until the bank's
	// first fold it is the bank's whole epoch count, and acts is nil.
	// acts, a count per row, materializes when the log fills (actLogSize
	// ACTs with no fold in between) or when ActCount reads a row; from
	// then on only rows in dirty have nonzero counts and the log holds
	// what has not yet reached acts (see Activate). A log-only bank's
	// dirty list is empty. sim reads the counts only through
	// RowsWithActsAtLeast, which does not materialize them.
	acts  []int32
	dirty []int32
	log   []int32

	// content holds the 64-bit data tags of rows written by swaps (and by
	// the ReadLine/WriteLine test helpers); other rows hold their identity
	// tag. Swaps scatter over the bank, so a map keeps memory proportional
	// to the rows they touch. No per-access path reads it.
	content map[int]uint64

	// Stats for the power model (cumulative, not reset per epoch).
	StatActs   int64
	StatReads  int64
	StatWrites int64
}

// HasCounts reports whether the bank's per-row counts have
// materialized; until then its activation log is its epoch count.
func (b *Bank) HasCounts() bool { return b.acts != nil }

// actLogSize is how many activations a bank logs before folding them into
// its counts (16 KiB of int32 rows per bank).
const actLogSize = 4096

// fold adds the logged activations to the per-row counts, allocating
// the bank's per-row counts on its first fold. The count array is far
// larger than the caches and consecutive ACTs rarely share a row, so
// almost every increment misses; no increment depends on another, so in
// this loop the misses overlap instead of each stalling the activation
// that caused it. Every row is written to the dirty list's spare room
// and the length advances only past a first touch, a conditional move
// rather than a branch that scattered rows mispredict.
func (b *Bank) fold(rows int) {
	if b.acts == nil {
		b.acts = make([]int32, rows)
	}
	d := slices.Grow(b.dirty, len(b.log))
	n := len(d)
	d = d[:n+len(b.log)]
	for _, r := range b.log {
		c := b.acts[r]
		b.acts[r] = c + 1
		d[n] = r
		if c == 0 {
			n++
		}
	}
	b.dirty = d[:n]
	b.log = b.log[:0]
}

// System is the full DRAM device state.
type System struct {
	cfg        config.Config
	banks      []Bank  // index: ((channel*ranks)+rank)*banks + bank
	busFree    []int64 // per channel: first cycle the data bus is free
	blocked    []int64 // per channel: blocked until (swap transfers)
	listeners  []ActListener
	epochHooks []func()

	// geo holds Decode's shifts and masks.
	geo geometry

	// refSlot and refStart cache the tREFI window that RefreshWindow
	// last computed for a non-negative time; times inside it need no
	// division.
	refSlot, refStart int64

	// tally is the row-indexed scratch RowsWithActsAtLeast counts a
	// log-only bank's log in; it is all zero between calls. A log holds
	// at most actLogSize rows, so no tally overflows a uint16.
	tally []uint16

	// eng, when non-nil, receives swap-conservation violations: each
	// SwapRows/CycleRows re-reads the involved rows after the transfer
	// and compares against the contents captured before it. swapChecks
	// tallies those verifications; tearNextSwap is the fault-injection
	// hook that skips one write so the check provably fires.
	eng          *invariant.Engine
	swapChecks   int64
	tearNextSwap bool
}

// geometry is the line-address layout (Decode): from the low bits up,
// the column within the row, channel, bank, rank and row. Each field's
// size is a power of two (config.Validate), so a field is a shift and a
// mask.
type geometry struct {
	colMask                                 uint64
	chShift, bankShift, rankShift, rowShift uint
	chMask, bankMask, rankMask, rowMask     uint64
}

func newGeometry(cfg config.Config) geometry {
	log2 := func(n int) uint { return uint(bits.TrailingZeros(uint(n))) }
	var g geometry
	g.colMask = uint64(cfg.RowBytes/cfg.LineBytes) - 1
	g.chShift = log2(cfg.RowBytes / cfg.LineBytes)
	g.chMask = uint64(cfg.Channels) - 1
	g.bankShift = g.chShift + log2(cfg.Channels)
	g.bankMask = uint64(cfg.Banks) - 1
	g.rankShift = g.bankShift + log2(cfg.Banks)
	g.rankMask = uint64(cfg.Ranks) - 1
	g.rowShift = g.rankShift + log2(cfg.Ranks)
	g.rowMask = uint64(cfg.RowsPerBank) - 1
	return g
}

// New creates a DRAM system for the given configuration. The error wraps
// invariant.ErrBadGeometry when the configuration fails validation.
func New(cfg config.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("dram: %w: %v", invariant.ErrBadGeometry, err)
	}
	n := cfg.Channels * cfg.Ranks * cfg.Banks
	s := &System{
		cfg:     cfg,
		banks:   make([]Bank, n),
		busFree: make([]int64, cfg.Channels),
		blocked: make([]int64, cfg.Channels),
		tally:   make([]uint16, cfg.RowsPerBank),
		geo:     newGeometry(cfg),
	}
	logs := make([]int32, n*actLogSize)
	for i := range s.banks {
		s.banks[i].OpenRow = NoRow
		s.banks[i].log = logs[i*actLogSize : i*actLogSize : (i+1)*actLogSize]
	}
	return s, nil
}

// MustNew is New for callers with statically valid configurations (tests,
// benchmarks); it panics on error.
func MustNew(cfg config.Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the system configuration.
func (s *System) Config() config.Config { return s.cfg }

// Subscribe registers an activation listener.
func (s *System) Subscribe(l ActListener) { s.listeners = append(s.listeners, l) }

// SubscribeEpoch registers a hook invoked by ResetEpoch, after the
// activation counters clear. The fault model uses this to model the
// rolling refresh restoring every row's charge once per epoch.
func (s *System) SubscribeEpoch(fn func()) { s.epochHooks = append(s.epochHooks, fn) }

func (s *System) bankIndex(id BankID) int {
	return (id.Channel*s.cfg.Ranks+id.Rank)*s.cfg.Banks + id.Bank
}

// BankState returns the bank's mutable state.
func (s *System) BankState(id BankID) *Bank { return &s.banks[s.bankIndex(id)] }

// EachBank calls fn for every bank.
func (s *System) EachBank(fn func(id BankID, b *Bank)) {
	for c := 0; c < s.cfg.Channels; c++ {
		for r := 0; r < s.cfg.Ranks; r++ {
			for k := 0; k < s.cfg.Banks; k++ {
				id := BankID{Channel: c, Rank: r, Bank: k}
				fn(id, s.BankState(id))
			}
		}
	}
}

// Decode maps a cache-line address (line index, not byte address) to DRAM
// coordinates. Layout from low to high bits: column within row, channel,
// bank, rank, row — spreading consecutive lines across a row, then
// channels, then banks, so sequential streams exploit parallelism.
func (s *System) Decode(line uint64) Address {
	g := &s.geo
	return Address{
		BankID: BankID{
			Channel: int(line >> g.chShift & g.chMask),
			Rank:    int(line >> g.rankShift & g.rankMask),
			Bank:    int(line >> g.bankShift & g.bankMask),
		},
		Row: int(line >> g.rowShift & g.rowMask),
		Col: int(line & g.colMask),
	}
}

// Encode is the inverse of Decode, returning the line index for an
// address. Fields add rather than OR, so an out-of-range field carries
// into the next as the mixed-radix product did.
func (s *System) Encode(a Address) uint64 {
	g := &s.geo
	return uint64(a.Row)<<g.rowShift + uint64(a.Rank)<<g.rankShift +
		uint64(a.Bank)<<g.bankShift + uint64(a.Channel)<<g.chShift + uint64(a.Col)
}

// RefreshWindow returns the index and first cycle of the tREFI window
// covering time t. The last window is cached, so only a time outside it
// divides.
func (s *System) RefreshWindow(t int64) (slot, start int64) {
	if uint64(t-s.refStart) < uint64(s.cfg.TREFI) {
		return s.refSlot, s.refStart
	}
	return s.moveRefreshWindow(t)
}

// moveRefreshWindow computes t's window and caches it. A negative t's
// window is not cached: division truncates toward zero, so its slot
// does not cover one tREFI span from its start.
func (s *System) moveRefreshWindow(t int64) (slot, start int64) {
	trefi := int64(s.cfg.TREFI)
	slot = t / trefi
	start = slot * trefi
	if t >= 0 {
		s.refSlot, s.refStart = slot, start
	}
	return slot, start
}

// SkipRefresh pushes t past any refresh window it falls into. Each tREFI
// period begins with tRFC cycles of refresh during which the rank is
// unavailable.
func (s *System) SkipRefresh(t int64) int64 {
	_, start := s.RefreshWindow(t)
	return max(t, start+int64(s.cfg.TRFC))
}

// BlockChannel makes the channel unavailable until cycle until (used for
// swap transfers, which occupy the shared data bus).
func (s *System) BlockChannel(ch int, until int64) {
	if until > s.blocked[ch] {
		s.blocked[ch] = until
	}
}

// ChannelBlockedUntil returns the channel-block horizon.
func (s *System) ChannelBlockedUntil(ch int) int64 { return s.blocked[ch] }

// ReserveBus allocates the data bus for one line transfer starting no
// earlier than earliest, returning the cycle the transfer starts.
func (s *System) ReserveBus(ch int, earliest int64) int64 {
	start := earliest
	if s.busFree[ch] > start {
		start = s.busFree[ch]
	}
	s.busFree[ch] = start + int64(s.cfg.TBurst)
	return start
}

// Activate records an activation of row in bank at time now: it opens the
// row buffer, counts the activation for the epoch and statistics, and
// notifies listeners. Timing reservations are the caller's job. The
// epoch count goes to the bank's log, folded into the per-row counts
// when the log fills or ActCount reads a count.
func (s *System) Activate(id BankID, row int, now int64) {
	b := s.BankState(id)
	b.OpenRow = row
	if len(b.log) == cap(b.log) {
		b.fold(s.cfg.RowsPerBank)
	}
	b.log = append(b.log, int32(row))
	b.StatActs++
	for _, l := range s.listeners {
		l.OnActivate(id, row, now)
	}
}

// ActCount returns the number of activations row has received in the
// current epoch. It folds the bank's log, so a log-only bank gets its
// per-row counts here; only tests call it.
func (s *System) ActCount(id BankID, row int) int {
	b := s.BankState(id)
	b.fold(s.cfg.RowsPerBank)
	return int(b.acts[row])
}

// RowsWithActsAtLeast counts rows in the bank with at least n activations
// this epoch (the paper's ACT-800+ statistic uses n = 800). A log-only
// bank is counted from its log in O(log length), through the tally:
// every logged row is incremented, then each is counted if it reached
// n and zeroed, so its later entries read zero and count once. As with
// the dirty list, only activated rows count, so n below 1 counts as 1.
func (s *System) RowsWithActsAtLeast(id BankID, n int) int {
	b := s.BankState(id)
	count := 0
	if b.acts == nil {
		n = max(n, 1)
		for _, r := range b.log {
			s.tally[r]++
		}
		for _, r := range b.log {
			if int(s.tally[r]) >= n {
				count++
			}
			s.tally[r] = 0
		}
		return count
	}
	b.fold(s.cfg.RowsPerBank)
	for _, r := range b.dirty {
		if int(b.acts[r]) >= n {
			count++
		}
	}
	return count
}

// RefreshAll models a preemptive refresh of the entire DRAM (the response
// the paper's footnote 2 proposes when an attack on RRS is detected): all
// cells' charge is restored, so charge-restoration hooks fire, but the
// controller-side per-epoch activation bookkeeping is untouched.
func (s *System) RefreshAll() {
	for _, fn := range s.epochHooks {
		fn()
	}
}

// ResetEpoch clears per-epoch activation counts for all banks (the rolling
// refresh has covered every row once per epoch), unfolded ones included.
// A log-only bank's dirty list is empty, so emptying its log clears it;
// a bank with per-row counts keeps the zeroed array for the next epoch.
func (s *System) ResetEpoch() {
	for i := range s.banks {
		b := &s.banks[i]
		for _, r := range b.dirty {
			b.acts[r] = 0
		}
		b.dirty = b.dirty[:0]
		b.log = b.log[:0]
	}
	for _, fn := range s.epochHooks {
		fn()
	}
}

// RowContent returns the data tag stored in the physical row. Rows never
// written hold their identity tag (a function of the bank and row id), so
// swap verification does not need to pre-populate memory.
func (s *System) RowContent(id BankID, row int) uint64 {
	if v, ok := s.BankState(id).content[row]; ok {
		return v
	}
	return identityTag(id, row)
}

// SetRowContent overwrites the physical row's data tag.
func (s *System) SetRowContent(id BankID, row int, v uint64) {
	b := s.BankState(id)
	if b.content == nil {
		b.content = make(map[int]uint64)
	}
	b.content[row] = v
}

// SwapRows exchanges the contents of two physical rows in one bank (the
// swap-buffer data path of Figure 4: row X -> buffer 1, row Y -> buffer 2,
// buffer 1 -> row Y, buffer 2 -> row X). Both rows are activated twice
// (once to read, once to write), which the fault model observes.
func (s *System) SwapRows(id BankID, rowX, rowY int, now int64) {
	x := s.RowContent(id, rowX)
	y := s.RowContent(id, rowY)
	s.SetRowContent(id, rowX, y)
	if s.tearNextSwap {
		s.tearNextSwap = false
	} else {
		s.SetRowContent(id, rowY, x)
	}
	// Read and write activations for both rows.
	s.Activate(id, rowX, now)
	s.Activate(id, rowY, now)
	s.Activate(id, rowX, now)
	s.Activate(id, rowY, now)
	// The paper closes the row buffer after a swap so the destination
	// cannot be inferred from row-buffer timing.
	s.BankState(id).OpenRow = NoRow
	if s.eng != nil {
		s.swapChecks++
		if got := s.RowContent(id, rowX); got != y {
			s.eng.Report(invariant.Violatedf("dram/swap-conservation",
				"%v: after swap, row %d holds %#x, expected row %d's prior content %#x", id, rowX, got, rowY, y))
		}
		if got := s.RowContent(id, rowY); got != x {
			s.eng.Report(invariant.Violatedf("dram/swap-conservation",
				"%v: after swap, row %d holds %#x, expected row %d's prior content %#x", id, rowY, got, rowX, x))
		}
	}
}

// CycleRows rotates the contents of the given physical rows: row[i]'s data
// moves to row[i+1], and the last row's data to row[0]. Like SwapRows, each
// involved row is activated twice (one read stream, one write stream). RRS
// re-swaps use a 4-row cycle so that dissolving <X,M> into <X,A> and <M,B>
// costs two swap operations' worth of transfers (the paper's 2.9 us) and
// touches each involved physical row only twice.
func (s *System) CycleRows(id BankID, rows []int, now int64) {
	if len(rows) < 2 {
		return
	}
	var before []uint64
	if s.eng != nil {
		before = make([]uint64, len(rows))
		for i, r := range rows {
			before[i] = s.RowContent(id, r)
		}
	}
	last := s.RowContent(id, rows[len(rows)-1])
	for i := len(rows) - 1; i > 0; i-- {
		s.SetRowContent(id, rows[i], s.RowContent(id, rows[i-1]))
	}
	s.SetRowContent(id, rows[0], last)
	for _, r := range rows {
		s.Activate(id, r, now)
		s.Activate(id, r, now)
	}
	s.BankState(id).OpenRow = NoRow
	if s.eng != nil {
		s.swapChecks++
		for i, r := range rows {
			want := before[(i+len(rows)-1)%len(rows)]
			if got := s.RowContent(id, r); got != want {
				s.eng.Report(invariant.Violatedf("dram/swap-conservation",
					"%v: after %d-row cycle, row %d holds %#x, expected %#x", id, len(rows), r, got, want))
			}
		}
	}
}

func identityTag(id BankID, row int) uint64 {
	return uint64(id.Channel)<<48 | uint64(id.Rank)<<40 |
		uint64(id.Bank)<<32 | uint64(uint32(row))
}
