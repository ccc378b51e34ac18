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

	// Acts counts activations in the current epoch per row; only rows in
	// dirty have nonzero counts.
	acts  []int32
	dirty []int32

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

// System is the full DRAM device state.
type System struct {
	cfg        config.Config
	banks      []Bank  // index: ((channel*ranks)+rank)*banks + bank
	busFree    []int64 // per channel: first cycle the data bus is free
	blocked    []int64 // per channel: blocked until (swap transfers)
	listeners  []ActListener
	epochHooks []func()

	// eng, when non-nil, receives swap-conservation violations: each
	// SwapRows/CycleRows re-reads the involved rows after the transfer
	// and compares against the contents captured before it. swapChecks
	// tallies those verifications; tearNextSwap is the fault-injection
	// hook that skips one write so the check provably fires.
	eng          *invariant.Engine
	swapChecks   int64
	tearNextSwap bool
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
	}
	for i := range s.banks {
		s.banks[i].OpenRow = NoRow
		s.banks[i].acts = make([]int32, cfg.RowsPerBank)
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
	linesPerRow := uint64(s.cfg.RowBytes / s.cfg.LineBytes)
	col := int(line % linesPerRow)
	line /= linesPerRow
	ch := int(line % uint64(s.cfg.Channels))
	line /= uint64(s.cfg.Channels)
	bank := int(line % uint64(s.cfg.Banks))
	line /= uint64(s.cfg.Banks)
	rank := int(line % uint64(s.cfg.Ranks))
	line /= uint64(s.cfg.Ranks)
	row := int(line % uint64(s.cfg.RowsPerBank))
	return Address{BankID: BankID{Channel: ch, Rank: rank, Bank: bank}, Row: row, Col: col}
}

// Encode is the inverse of Decode, returning the line index for an address.
func (s *System) Encode(a Address) uint64 {
	linesPerRow := uint64(s.cfg.RowBytes / s.cfg.LineBytes)
	v := uint64(a.Row)
	v = v*uint64(s.cfg.Ranks) + uint64(a.Rank)
	v = v*uint64(s.cfg.Banks) + uint64(a.Bank)
	v = v*uint64(s.cfg.Channels) + uint64(a.Channel)
	v = v*linesPerRow + uint64(a.Col)
	return v
}

// refSlot returns the refresh window index covering time t.
func (s *System) refSlot(t int64) int64 { return t / int64(s.cfg.TREFI) }

// SkipRefresh pushes t past any refresh window it falls into. Each tREFI
// period begins with tRFC cycles of refresh during which the rank is
// unavailable.
func (s *System) SkipRefresh(t int64) int64 {
	slot := s.refSlot(t)
	start := slot * int64(s.cfg.TREFI)
	if t < start+int64(s.cfg.TRFC) {
		return start + int64(s.cfg.TRFC)
	}
	return t
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

// BusFreeAt returns the next free cycle of the channel's data bus.
func (s *System) BusFreeAt(ch int) int64 { return s.busFree[ch] }

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
// notifies listeners. Timing reservations are the caller's job.
func (s *System) Activate(id BankID, row int, now int64) {
	b := s.BankState(id)
	b.OpenRow = row
	if b.acts[row] == 0 {
		b.dirty = append(b.dirty, int32(row))
	}
	b.acts[row]++
	b.StatActs++
	for _, l := range s.listeners {
		l.OnActivate(id, row, now)
	}
}

// ActCount returns the number of activations row has received in the
// current epoch.
func (s *System) ActCount(id BankID, row int) int {
	return int(s.BankState(id).acts[row])
}

// RowsWithActsAtLeast counts rows in the bank with at least n activations
// this epoch (the paper's ACT-800+ statistic uses n = 800).
func (s *System) RowsWithActsAtLeast(id BankID, n int) int {
	b := s.BankState(id)
	count := 0
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
// refresh has covered every row once per epoch).
func (s *System) ResetEpoch() {
	for i := range s.banks {
		b := &s.banks[i]
		for _, r := range b.dirty {
			b.acts[r] = 0
		}
		b.dirty = b.dirty[:0]
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
