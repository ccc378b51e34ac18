// Package core implements Randomized Row-Swap (RRS), the RRS paper's
// primary contribution: an aggressor-focused Row Hammer mitigation that
// swaps a row with a randomly chosen row in the same bank every T_RRS
// activations, breaking the spatial correlation between aggressor and
// victim rows.
//
// Each bank owns a Hot-Row Tracker (Misra-Gries, package tracker) and a
// Row Indirection Table (package rit). On every memory access the RIT is
// consulted to find the row's current physical location; on every
// activation the HRT counts the logical row, and each time the count
// crosses a multiple of T_RRS the row is swapped with a fresh random row —
// one that is neither tracked by the HRT nor already swapped in the RIT,
// which guarantees the destination has fewer than T_RRS activations in the
// current epoch (Invariant 2 of the paper).
package core

import (
	"fmt"

	"repro/internal/cat"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/prince"
	"repro/internal/rit"
	"repro/internal/tracker"
)

// demandWays is the per-set demand capacity the paper's CAT geometries
// target; 6 extra ways make conflicts astronomically rare (Figure 9).
const (
	demandWays = 14
	extraWays  = 6
)

// Params configures RRS.
type Params struct {
	// SwapThreshold is T_RRS: activations between swaps of a row. The
	// paper derives T_RRS = T_RH/6 = 800 from its security analysis.
	SwapThreshold int64
	// TrackerEntries is the Misra-Gries capacity per bank; 0 derives
	// ACT_max / T_RRS (1700 at full scale).
	TrackerEntries int
	// RITTuples is the RIT capacity per bank in tuples; 0 derives
	// 2 * TrackerEntries (3400 at full scale).
	RITTuples int
	// UseCAMTracker selects the reference CAM tracker instead of the
	// scalable CAT-backed tracker (for the ablation study).
	UseCAMTracker bool
	// SwapOpCycles is the bus-cycle cost of one row-swap operation
	// (four row streams through the swap buffers, ~1.46 us); 0 derives it
	// from the configuration.
	SwapOpCycles int64
	// SwapProbability, when positive, selects the state-less variant the
	// paper's footnote 1 sketches: each activation triggers a swap with
	// this probability and no tracker is used. Unsuitable at low Row
	// Hammer thresholds — the TrackerVsProbabilistic ablation shows the
	// swap-rate blow-up.
	SwapProbability float64
	// DetectionThreshold, when positive, enables the footnote-2 attack
	// detector: a physical location absorbing this many swap events
	// within one epoch flags an attack and triggers a preemptive refresh
	// of the entire DRAM. Benign workloads essentially never trip it
	// (the default 3 has a false-positive rate of ~0.015 per epoch at
	// paper scale); attacks trip it within seconds, years before the
	// k = 6 swaps a bit flip requires.
	DetectionThreshold int
	// Seed drives all randomization (hash keys and swap destinations).
	Seed uint64
}

// DefaultParams derives the paper's parameters from the system
// configuration: T_RRS = T_RH / 6 and structures sized for the bank's
// maximum activation rate.
func DefaultParams(cfg config.Config) Params {
	t := int64(cfg.RowHammerThreshold / 6)
	if t < 1 {
		t = 1
	}
	return Params{SwapThreshold: t, Seed: 0x5252535f52525321} // "RRS_RRS!"
}

// ScaledParams returns the paper's parameters adjusted for a shrunken
// epoch: the swap-operation cost scales with cfg's epoch relative to the
// full 64 ms epoch, so the fraction of an epoch spent on swap transfers —
// what the performance results depend on — matches full scale. Use this
// instead of DefaultParams when cfg came from config.Default().Scaled(n).
func ScaledParams(cfg config.Config) Params {
	p := DefaultParams(cfg)
	fullCfg := config.Default()
	full, _ := DefaultParams(fullCfg).Finalize(fullCfg)
	p.SwapOpCycles = full.SwapOpCycles * cfg.EpochCycles / fullCfg.EpochCycles
	if p.SwapOpCycles < 1 {
		p.SwapOpCycles = 1
	}
	return p
}

// Finalize fills derived fields (tracker entries, RIT tuples, swap cost)
// from the configuration, returning the effective parameters.
func (p Params) Finalize(cfg config.Config) (Params, error) {
	if p.SwapThreshold <= 0 {
		return p, fmt.Errorf("core: SwapThreshold must be positive, got %d", p.SwapThreshold)
	}
	if p.TrackerEntries == 0 {
		p.TrackerEntries = tracker.EntriesFor(cfg.ACTMax(), int(p.SwapThreshold))
	}
	if p.RITTuples == 0 {
		p.RITTuples = 2 * p.TrackerEntries
	}
	if p.SwapOpCycles == 0 {
		// One swap = 4 row streams (X->buf1, Y->buf2, buf1->Y, buf2->X),
		// each an activation plus a burst per line.
		linesPerRow := int64(cfg.RowBytes / cfg.LineBytes)
		p.SwapOpCycles = 4 * (int64(cfg.TRC) + linesPerRow*int64(cfg.TBurst))
	}
	return p, nil
}

// geometry returns a CAT spec with >= entries slots at the paper's
// demand/extra way split: sets is the power of two that brings demand ways
// per set near demandWays.
func geometry(entries int) cat.Spec {
	sets := 1
	for 2*sets*demandWays < entries {
		sets *= 2
	}
	ways := (entries + 2*sets - 1) / (2 * sets)
	return cat.Spec{Sets: sets, Ways: ways + extraWays}
}

// Stats aggregates RRS activity across all banks.
type Stats struct {
	// Swaps counts swap events (a row crossing a multiple of T_RRS and
	// being relocated).
	Swaps int64
	// Reswaps counts swap events whose row was already swapped.
	Reswaps int64
	// SwapOps counts physical row-swap operations, including un-swaps for
	// RIT evictions (each costs ~1.46 us of channel time).
	SwapOps int64
	// EvictionUnswaps counts lazy RIT evictions (un-swap of a stale tuple).
	EvictionUnswaps int64
	// DestRerolls counts swap-destination re-generations because the
	// first random pick was resident in the HRT or RIT (paper: < 1%).
	DestRerolls int64
	// SkippedSwaps counts swaps abandoned because no destination could be
	// found or the RIT was full of locked entries (does not occur at
	// paper sizing).
	SkippedSwaps int64
	// AttacksDetected counts footnote-2 detector firings (each triggers a
	// preemptive refresh of the whole DRAM).
	AttacksDetected int64
	// BlockCycles is total channel-block time spent on swap transfers.
	BlockCycles int64
	// EpochSwaps is the number of swap events in the current epoch.
	EpochSwaps int64
	// SwapsPerEpoch records completed epochs' swap counts.
	SwapsPerEpoch []int64
}

// bankUnit is the per-bank RRS hardware.
type bankUnit struct {
	// hrt is nil in the probabilistic (footnote 1) variant.
	hrt tracker.Tracker
	rit *rit.RIT
	rng *prince.CTR
	// bank is the flat bank index stamped on observability events.
	bank int32
	// swapMarks counts swap events per physical location this epoch for
	// the footnote-2 attack detector (nil when detection is off).
	swapMarks map[uint64]int16
}

// RRS implements memctrl.Mitigation.
type RRS struct {
	cfg    config.Config
	sys    *dram.System
	params Params
	units  []bankUnit
	stats  Stats
	// ritPenalty is the per-access RIT lookup latency in bus cycles.
	ritPenalty int64
	// cycleBuf is scratch for the reswap 4-row cycle, reused so the hot
	// path performs no allocations (CycleRows does not retain the slice).
	cycleBuf [4]int
	// eng is the paranoid-mode invariant engine (nil when disabled); err
	// latches the first structural error the mitigation itself hit.
	eng *invariant.Engine
	err error
	// rec is the observability recorder (nil when disabled); the same
	// one-nil-test discipline as eng keeps the disabled path free.
	rec *obs.Recorder
}

var _ memctrl.Mitigation = (*RRS)(nil)

// New creates an RRS mitigation over sys. Pass DefaultParams(cfg) for the
// paper's configuration.
func New(sys *dram.System, params Params) (*RRS, error) {
	cfg := sys.Config()
	params, err := params.Finalize(cfg)
	if err != nil {
		return nil, err
	}
	nBanks := cfg.Channels * cfg.Ranks * cfg.Banks
	r := &RRS{
		cfg:        cfg,
		sys:        sys,
		params:     params,
		units:      make([]bankUnit, nBanks),
		ritPenalty: int64(float64(cfg.RITLatencyCPUCycles)/config.CPUCyclesPerBusCycle + 0.5),
	}
	trackerSpec := geometry(params.TrackerEntries)
	ritSpec := geometry(2 * params.RITTuples)
	seeds := prince.Seeded(params.Seed)
	for i := range r.units {
		var hrt tracker.Tracker
		switch {
		case params.SwapProbability > 0:
			// Probabilistic variant: no tracker.
		case params.UseCAMTracker:
			cam, err := tracker.NewCAM(params.TrackerEntries, params.SwapThreshold)
			if err != nil {
				return nil, err
			}
			hrt = cam
		default:
			ct, err := tracker.NewCAT(trackerSpec, params.TrackerEntries, params.SwapThreshold, seeds.Next())
			if err != nil {
				return nil, err
			}
			hrt = ct
		}
		rt, err := rit.New(ritSpec, params.RITTuples, seeds.Next())
		if err != nil {
			return nil, err
		}
		r.units[i] = bankUnit{
			hrt:  hrt,
			rit:  rt,
			rng:  prince.NewCTR(seeds.Next(), seeds.Next()),
			bank: int32(i),
		}
		if params.DetectionThreshold > 0 {
			r.units[i].swapMarks = make(map[uint64]int16)
		}
	}
	return r, nil
}

// EnableObs attaches an event recorder: the swap engine records swap /
// re-swap / un-swap / channel-block / epoch events, and the per-bank RIT
// and tracker structures record their own churn through the same
// recorder. Call before the run starts; nil detaches.
func (r *RRS) EnableObs(rec *obs.Recorder) {
	r.rec = rec
	for i := range r.units {
		u := &r.units[i]
		u.rit.SetObs(rec, u.bank)
		if t, ok := u.hrt.(tracker.ObsTarget); ok {
			t.SetObs(rec, u.bank)
		}
	}
}

// Params returns the finalized parameters.
func (r *RRS) Params() Params { return r.params }

// Stats returns a snapshot of RRS statistics.
func (r *RRS) Stats() Stats {
	s := r.stats
	s.SwapsPerEpoch = append([]int64(nil), r.stats.SwapsPerEpoch...)
	return s
}

func (r *RRS) unit(id dram.BankID) *bankUnit {
	return &r.units[(id.Channel*r.cfg.Ranks+id.Rank)*r.cfg.Banks+id.Bank]
}

// Tracker exposes a bank's hot-row tracker (for tests and experiments).
// It is nil in the probabilistic variant.
func (r *RRS) Tracker(id dram.BankID) tracker.Tracker { return r.unit(id).hrt }

// RIT exposes a bank's row-indirection table (for tests and experiments).
func (r *RRS) RIT(id dram.BankID) *rit.RIT { return r.unit(id).rit }

// Remap implements memctrl.Mitigation: the per-access RIT lookup.
func (r *RRS) Remap(id dram.BankID, row int) int {
	return int(r.unit(id).rit.Remap(uint64(row)))
}

// ActivateDelay implements memctrl.Mitigation; RRS never delays
// activations (unlike BlockHammer).
func (r *RRS) ActivateDelay(dram.BankID, int, int64) int64 { return 0 }

// AccessPenalty implements memctrl.Mitigation: the RIT lookup latency
// added to every access (4 CPU cycles in the paper).
func (r *RRS) AccessPenalty() int64 { return r.ritPenalty }

// OnEpoch implements memctrl.Mitigation: reset every tracker and unlock
// RIT entries so stale tuples drain lazily.
func (r *RRS) OnEpoch(now int64) {
	if rec := r.rec; rec != nil {
		// Sample occupancy at the boundary, before trackers reset.
		rec.SetNow(now)
		epoch := int64(len(r.stats.SwapsPerEpoch))
		var ritTotal, hrtTotal int64
		for i := range r.units {
			u := &r.units[i]
			tuples := int64(u.rit.Tuples())
			rec.Observe(obs.HistRITOcc, tuples)
			ritTotal += tuples
			if u.hrt != nil {
				rows := int64(u.hrt.Len())
				rec.Observe(obs.HistHRTOcc, rows)
				hrtTotal += rows
			}
		}
		rec.Sample(obs.EpochSample{
			Epoch:       epoch,
			At:          now,
			Swaps:       r.stats.EpochSwaps,
			RITTuples:   ritTotal,
			HRTRows:     hrtTotal,
			BlockCycles: r.stats.BlockCycles,
		})
	}
	for i := range r.units {
		if r.units[i].hrt != nil {
			r.units[i].hrt.Reset()
		}
		r.units[i].rit.ClearLocks()
		r.units[i].resetDetection()
	}
	r.stats.SwapsPerEpoch = append(r.stats.SwapsPerEpoch, r.stats.EpochSwaps)
	r.stats.EpochSwaps = 0
}

// OnActivate implements memctrl.Mitigation: count the logical row in the
// HRT and, when its estimated count crosses a multiple of T_RRS, swap it
// with a fresh random row in the bank.
func (r *RRS) OnActivate(id dram.BankID, row, physRow int, now int64) memctrl.ActResult {
	u := r.unit(id)
	var count int64
	var trigger bool
	if u.hrt != nil {
		count, trigger = u.hrt.Observe(uint64(row))
	} else {
		trigger = r.probabilisticTrigger(u)
	}
	// A swap never touches the tracker, so the count Observe returned
	// still holds after one.
	headroom := r.headroom(count)
	if !trigger {
		return memctrl.ActResult{Headroom: headroom}
	}
	ops := r.swap(u, id, uint64(row), now)
	if ops == 0 {
		return memctrl.ActResult{Headroom: headroom}
	}
	block := ops * r.params.SwapOpCycles
	r.stats.BlockCycles += block
	if rec := r.rec; rec != nil {
		rec.Record(obs.KindChannelBlocked, u.bank, uint64(row), uint64(ops), now, block)
		rec.Observe(obs.HistSwapBlock, block)
	}
	return memctrl.ActResult{ChannelBlock: block, Headroom: headroom}
}

// headroom returns how many further consecutive activations of a row
// whose tracker estimate is c are guaranteed inert: a tracked row cannot
// cross the next multiple of T_RRS for another T_RRS - 1 - (c mod T_RRS)
// activations, and non-triggering activations have no other effect. An
// untracked row (c == 0, which also stands for the probabilistic
// variant's draw per activation) gets none.
func (r *RRS) headroom(c int64) int64 {
	if c == 0 {
		return 0
	}
	return r.params.SwapThreshold - 1 - c%r.params.SwapThreshold
}

// OnActivateN implements memctrl.Batcher: deliver a deferred burst of n
// same-row activations as one bulk tracker update. The controller only
// defers activations inside granted headroom, so none of them can
// trigger a swap.
func (r *RRS) OnActivateN(id dram.BankID, row, _ int, _ int64, n int64) {
	if n <= 0 {
		return
	}
	u := r.unit(id)
	if u.hrt == nil {
		return
	}
	if fired := u.hrt.ObserveN(uint64(row), n); fired != 0 {
		panic("core: deferred activation burst crossed the swap threshold")
	}
}

// swap relocates logical row and returns the number of row-swap operations
// performed (0 if the swap had to be skipped).
func (r *RRS) swap(u *bankUnit, id dram.BankID, row uint64, now int64) int64 {
	// The physical location that has just absorbed T_RRS activations.
	r.observeDetection(u, u.rit.Remap(row))
	if partner, swapped := u.rit.Lookup(row); swapped {
		return r.reswap(u, id, row, partner, now)
	}
	dest, ok := r.pickDestination(u, row, 0)
	if !ok {
		r.stats.SkippedSwaps++
		return 0
	}
	ev, ok, err := u.rit.Install(row, dest)
	if err != nil {
		r.fail(err)
		r.stats.SkippedSwaps++
		return 0
	}
	var ops int64
	if ev.Happened {
		// The evicted stale tuple's rows are un-swapped (restored home).
		r.sys.SwapRows(id, int(ev.X), int(ev.Y), now)
		r.stats.EvictionUnswaps++
		ops++
		if rec := r.rec; rec != nil {
			rec.Record(obs.KindUnswap, u.bank, ev.X, ev.Y, now, 0)
		}
	}
	if !ok {
		r.stats.SkippedSwaps++
		return ops
	}
	r.sys.SwapRows(id, int(row), int(dest), now)
	ops++
	r.stats.Swaps++
	r.stats.EpochSwaps++
	if rec := r.rec; rec != nil {
		rec.Record(obs.KindSwap, u.bank, row, dest, now, 0)
	}
	return ops
}

// reswap handles a swap request for a row that is already swapped: the
// tuple <row,partner> dissolves and both rows move to fresh random
// destinations (<row,A> and <partner,B>), so the physical location that
// absorbed the previous T_RRS activations receives a cold, random
// occupant. The data movement is a fused 4-row cycle — loc(partner) ->
// loc(A) -> loc(row) -> loc(B) -> loc(partner) — which costs two swap
// operations' worth of streams (the paper's ~2.9 us) and activates each
// involved physical row only twice.
func (r *RRS) reswap(u *bankUnit, id dram.BankID, row, partner uint64, now int64) int64 {
	destA, okA := r.pickDestination(u, row, partner)
	if !okA {
		r.stats.SkippedSwaps++
		return 0
	}
	destB, okB := r.pickDestination(u, partner, row)
	if !okB || destB == destA {
		r.stats.SkippedSwaps++
		return 0
	}

	// Update the RIT first; data moves only once both tuples are in.
	u.rit.Remove(row)
	var ops int64
	ev, ok, err := u.rit.Install(row, destA)
	if err != nil {
		r.fail(err)
		r.restoreTuple(u, id, row, partner, now)
		r.stats.SkippedSwaps++
		return 0
	}
	if ev.Happened {
		r.sys.SwapRows(id, int(ev.X), int(ev.Y), now)
		r.stats.EvictionUnswaps++
		ops++
		if rec := r.rec; rec != nil {
			rec.Record(obs.KindUnswap, u.bank, ev.X, ev.Y, now, 0)
		}
	}
	if !ok {
		r.restoreTuple(u, id, row, partner, now)
		r.stats.SkippedSwaps++
		return ops
	}
	ev, ok, err = u.rit.Install(partner, destB)
	if err != nil {
		r.fail(err)
		u.rit.Remove(row) // undo <row,destA>
		r.restoreTuple(u, id, row, partner, now)
		r.stats.SkippedSwaps++
		return ops
	}
	if ev.Happened {
		r.sys.SwapRows(id, int(ev.X), int(ev.Y), now)
		r.stats.EvictionUnswaps++
		ops++
		if rec := r.rec; rec != nil {
			rec.Record(obs.KindUnswap, u.bank, ev.X, ev.Y, now, 0)
		}
	}
	if !ok {
		u.rit.Remove(row) // undo <row,destA>
		r.restoreTuple(u, id, row, partner, now)
		r.stats.SkippedSwaps++
		return ops
	}

	r.cycleBuf = [4]int{int(partner), int(destA), int(row), int(destB)}
	r.sys.CycleRows(id, r.cycleBuf[:], now)
	ops += 2
	r.stats.Swaps++
	r.stats.Reswaps++
	r.stats.EpochSwaps++
	if rec := r.rec; rec != nil {
		rec.Record(obs.KindReswap, u.bank, row, partner, now, 0)
	}
	return ops
}

// restoreTuple re-registers <row,partner> after a failed re-swap so the
// mapping matches the unchanged physical layout. If even that fails (a CAT
// conflict, ~1e30 installs at paper sizing), the rows are physically
// swapped home instead so data stays consistent.
func (r *RRS) restoreTuple(u *bankUnit, id dram.BankID, row, partner uint64, now int64) {
	_, ok, err := u.rit.Install(row, partner)
	if err != nil {
		r.fail(err)
	}
	if !ok || err != nil {
		r.sys.SwapRows(id, int(row), int(partner), now)
	}
}

// pickDestination draws a uniform random row of the bank that is not the
// source, not tracked by the HRT, and not already swapped in the RIT —
// guaranteeing it has fewer than T_RRS activations this epoch. More than
// one re-roll happens with probability < 1% at paper scale.
func (r *RRS) pickDestination(u *bankUnit, row, alsoExclude uint64) (uint64, bool) {
	n := uint64(r.cfg.RowsPerBank)
	for try := 0; try < 64; try++ {
		d := u.rng.Uint64n(n)
		if d == row || d == alsoExclude || (u.hrt != nil && u.hrt.Contains(d)) || u.rit.Contains(d) {
			if try == 0 {
				r.stats.DestRerolls++
			}
			continue
		}
		return d, true
	}
	return 0, false
}
