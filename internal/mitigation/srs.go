package mitigation

import (
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/prince"
	"repro/internal/tracker"
)

// SRS models Scalable/Secure Row-Swap (arXiv 2212.12613), the successor
// that fixes RRS's two published weaknesses:
//
//   - Juggling attack: RRS keys its Misra-Gries tracker on *logical* row
//     ids, so every swap installs a fresh, untracked occupant into the hot
//     physical slot and the slot's neighbours accumulate disturbance
//     without bound. SRS keys the tracker on the *physical slot*, so the
//     count survives occupant churn, and every trigger both relocates the
//     occupant and refreshes the slot's immediate neighbours — bounding a
//     victim's disturbance at roughly two swap thresholds regardless of
//     how the attacker chases occupants.
//   - SRAM scaling: RRS keeps a tracker plus two RIT tables; SRS unifies
//     swap state into one structure (modeled here as a per-bank
//     permutation pair with a slot-keyed tracker), cutting the per-bank
//     SRAM cost by ~3x (see the shootout's storage model and DESIGN.md
//     §11).
//
// Simplifications versus the paper, documented in DESIGN.md §11: the
// unified table is modeled as an unbounded logical<->physical permutation
// (no eviction/unswap machinery — the analytic SRAM model charges the
// paper's bounded unified table), and swaps move whole rows through the
// same ~1.46 us channel-blocking transfer RRS uses.
type SRS struct {
	verifier
	observer
	sys    *dram.System
	cfg    config.Config
	params SRSParams
	units  []srsUnit
	stat   SRSStats
	// ritPenalty is the per-access indirection lookup cost, identical to
	// RRS's RIT latency.
	ritPenalty int64
}

// srsUnit is one bank's SRS hardware.
type srsUnit struct {
	// hrt counts activations per *physical slot* (the defining difference
	// from RRS's logical-row tracker).
	hrt tracker.Tracker
	// perm maps logical row -> physical row; inv is its inverse.
	perm rowMap
	inv  rowMap
	rng  *prince.CTR
	bank int32
}

// rowPageBits sizes a rowMap page: 128 rows, 512 B. Swap destinations
// are random rows, so almost every swap materializes fresh pages; small
// pages keep a run's bytes close to the rows its swaps touch, while the
// page tables stay at 8 KiB per map per bank at Table 2 geometry.
const rowPageBits = 7

// rowMap is a map of a bank's rows onto themselves that starts as the
// identity. Each row's image is stored as an XOR delta from the row, in
// pages allocated at the first non-identity write, so a zero delta or a
// missing page means "unmoved" and a run materializes only the pages of
// the few thousand rows its swaps scatter over the bank.
type rowMap []*[1 << rowPageBits]int32

// at returns row's image.
func (m rowMap) at(row int) int {
	if p := m[row>>rowPageBits]; p != nil {
		return row ^ int(p[row&(1<<rowPageBits-1)])
	}
	return row
}

// set maps row to v.
func (m rowMap) set(row, v int) {
	p := m[row>>rowPageBits]
	if p == nil {
		if row == v {
			return
		}
		p = new([1 << rowPageBits]int32)
		m[row>>rowPageBits] = p
	}
	p[row&(1<<rowPageBits-1)] = int32(row ^ v)
}

// SRSStats counts SRS activity.
type SRSStats struct {
	// Swaps is the number of occupant relocations.
	Swaps int64
	// Refreshes is the number of neighbour refresh activations.
	Refreshes int64
	// DestRerolls counts swap-destination re-generations.
	DestRerolls int64
	// SkippedSwaps counts triggers that found no destination.
	SkippedSwaps int64
	// BlockCycles is total channel-block time spent on swap transfers.
	BlockCycles int64
}

// SRSParams configures SRS.
type SRSParams struct {
	// SwapThreshold is activations of one physical slot between
	// mitigations (the paper keeps RRS's T_RH/6 derivation).
	SwapThreshold int64
	// TrackerEntries is the slot tracker's Misra-Gries capacity per bank;
	// 0 derives ACT_max / SwapThreshold.
	TrackerEntries int
	// SwapOpCycles is the bus-cycle cost of one row-swap transfer; 0
	// derives the four-row-stream cost from the configuration.
	SwapOpCycles int64
	// Seed drives destination selection.
	Seed uint64
}

// DefaultSRSParams derives the paper's parameters from the configuration.
func DefaultSRSParams(cfg config.Config) SRSParams {
	t := int64(cfg.RowHammerThreshold / 6)
	if t < 1 {
		t = 1
	}
	return SRSParams{SwapThreshold: t, Seed: 0x5253_5253}
}

// ScaledSRSParams adjusts the swap-transfer cost for a shrunken epoch the
// same way core.ScaledParams does for RRS, so the fraction of an epoch
// spent on swaps matches full scale.
func ScaledSRSParams(cfg config.Config) SRSParams {
	p := DefaultSRSParams(cfg)
	full := config.Default()
	p.SwapOpCycles = swapOpCycles(full) * cfg.EpochCycles / full.EpochCycles
	if p.SwapOpCycles < 1 {
		p.SwapOpCycles = 1
	}
	return p
}

// swapOpCycles is the four-row-stream swap transfer cost (the same
// derivation core.Params.Finalize uses).
func swapOpCycles(cfg config.Config) int64 {
	linesPerRow := int64(cfg.RowBytes / cfg.LineBytes)
	return 4 * (int64(cfg.TRC) + linesPerRow*int64(cfg.TBurst))
}

// NewSRS creates the mitigation over sys.
func NewSRS(sys *dram.System, p SRSParams) *SRS {
	cfg := sys.Config()
	if p.SwapThreshold <= 0 {
		panic("mitigation: SRS SwapThreshold must be positive")
	}
	if p.TrackerEntries == 0 {
		p.TrackerEntries = tracker.EntriesFor(cfg.ACTMax(), int(p.SwapThreshold))
	}
	if p.SwapOpCycles == 0 {
		p.SwapOpCycles = swapOpCycles(cfg)
	}
	nBanks := cfg.Channels * cfg.Ranks * cfg.Banks
	s := &SRS{
		sys:        sys,
		cfg:        cfg,
		params:     p,
		units:      make([]srsUnit, nBanks),
		ritPenalty: int64(float64(cfg.RITLatencyCPUCycles)/config.CPUCyclesPerBusCycle + 0.5),
	}
	seeds := prince.Seeded(p.Seed)
	pages := (cfg.RowsPerBank + 1<<rowPageBits - 1) >> rowPageBits
	for i := range s.units {
		cam, err := tracker.NewCAM(p.TrackerEntries, p.SwapThreshold)
		if err != nil {
			// EntriesFor guarantees entries >= 1; threshold checked above.
			panic(err)
		}
		u := &s.units[i]
		u.hrt = cam
		u.rng = prince.NewCTR(seeds.Next(), seeds.Next())
		u.bank = int32(i)
		u.perm = make(rowMap, pages)
		u.inv = make(rowMap, pages)
	}
	return s
}

// Params returns the finalized parameters.
func (s *SRS) Params() SRSParams { return s.params }

// Stats returns a snapshot of SRS activity.
func (s *SRS) Stats() SRSStats { return s.stat }

func (s *SRS) unit(id dram.BankID) *srsUnit {
	return &s.units[bankIndex(s.cfg, id)]
}

// Remap implements memctrl.Mitigation: the unified-table lookup.
func (s *SRS) Remap(id dram.BankID, row int) int {
	return s.unit(id).perm.at(row)
}

// Occupant returns the logical row currently resident in the physical
// slot — the attack package's white-box oracle (attack.OccupantFinder).
func (s *SRS) Occupant(id dram.BankID, physRow int) int {
	return s.unit(id).inv.at(physRow)
}

// ActivateDelay implements memctrl.Mitigation; SRS never throttles.
func (s *SRS) ActivateDelay(dram.BankID, int, int64) int64 { return 0 }

// AccessPenalty implements memctrl.Mitigation: the indirection lookup.
func (s *SRS) AccessPenalty() int64 { return s.ritPenalty }

// OnEpoch implements memctrl.Mitigation: slot counters reset with the
// refresh window; the permutation persists (data stays where it is).
func (s *SRS) OnEpoch(int64) {
	for i := range s.units {
		s.units[i].hrt.Reset()
	}
}

// OnActivate implements memctrl.Mitigation: count the *physical slot*
// and, on each threshold crossing, relocate the slot's occupant to a
// random cold slot and refresh the slot's neighbours.
func (s *SRS) OnActivate(id dram.BankID, row, physRow int, now int64) memctrl.ActResult {
	u := s.unit(id)
	if !u.hrt.Observe(uint64(physRow)) {
		return memctrl.ActResult{}
	}
	// The slot has absorbed SwapThreshold activations: refresh its
	// neighbours (they carry the accumulated disturbance) and move the
	// occupant away so continued pressure lands on a cold neighbourhood.
	n := refreshNeighbors(s.sys, id, physRow, 1, now)
	s.stat.Refreshes += int64(n)
	s.recordRefresh(u.bank, physRow, n, now)
	res := memctrl.ActResult{BankBlock: victimRefreshCost(s.cfg, n)}

	dest, ok := s.pickDestination(u, physRow)
	if !ok {
		s.stat.SkippedSwaps++
		return res
	}
	destPhys := u.perm.at(dest)
	s.sys.SwapRows(id, physRow, destPhys, now)
	occ := u.inv.at(physRow)
	u.perm.set(occ, destPhys)
	u.perm.set(dest, physRow)
	u.inv.set(physRow, dest)
	u.inv.set(destPhys, occ)
	s.stat.Swaps++
	s.stat.BlockCycles += s.params.SwapOpCycles
	if rec := s.rec; rec != nil {
		rec.Record(obs.KindSwap, u.bank, uint64(occ), uint64(destPhys), now, 0)
		rec.Record(obs.KindChannelBlocked, u.bank, uint64(physRow), 1, now, s.params.SwapOpCycles)
		rec.Observe(obs.HistSwapBlock, s.params.SwapOpCycles)
	}
	res.ChannelBlock = s.params.SwapOpCycles
	return res
}

// pickDestination draws a random logical row whose physical slot is cold:
// not the triggering slot and not tracked as hot. More than one re-roll
// is rare at paper sizing (the tracker holds ACT_max/T of the bank's
// rows).
func (s *SRS) pickDestination(u *srsUnit, physRow int) (int, bool) {
	n := uint64(s.cfg.RowsPerBank)
	for try := 0; try < 64; try++ {
		d := int(u.rng.Uint64n(n))
		dp := uint64(u.perm.at(d))
		if int(dp) == physRow || u.hrt.Contains(dp) {
			if try == 0 {
				s.stat.DestRerolls++
			}
			continue
		}
		return d, true
	}
	return 0, false
}

// EnableParanoid attaches the runtime self-verification layer: the shared
// DRAM checks plus SRS's own structural catalog — the permutation pair
// must remain mutually inverse, and the slot trackers must pass their
// Misra-Gries structure checks.
func (s *SRS) EnableParanoid(eng *invariant.Engine) {
	s.attach(eng, s.sys)
	eng.Register("srs/permutation", s.CheckInvariants)
	eng.Register("srs/tracker", func() error {
		for i := range s.units {
			if sc, ok := s.units[i].hrt.(tracker.SelfChecker); ok {
				if err := sc.CheckInvariants(); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// CheckInvariants verifies that every bank's perm/inv pair is a mutually
// inverse permutation — the unified table's structural invariant. Rows
// outside every materialized page of both maps are the identity in both,
// so checking both compositions on each row of those pages covers the
// whole bank.
func (s *SRS) CheckInvariants() error {
	rows := s.cfg.RowsPerBank
	for i := range s.units {
		u := &s.units[i]
		for pg := range u.perm {
			if u.perm[pg] == nil && u.inv[pg] == nil {
				continue
			}
			for r := pg << rowPageBits; r < min((pg+1)<<rowPageBits, rows); r++ {
				p, q := u.perm.at(r), u.inv.at(r)
				if uint(p) >= uint(rows) || uint(q) >= uint(rows) {
					return invariant.Violatedf("srs/permutation",
						"bank %d: perm[%d] = %d, inv[%d] = %d, out of range", i, r, p, r, q)
				}
				if back, fwd := u.inv.at(p), u.perm.at(q); back != r || fwd != r {
					return invariant.Violatedf("srs/permutation",
						"bank %d: inv[perm[%d]=%d] = %d, perm[inv[%d]=%d] = %d, want %d",
						i, r, p, back, r, q, fwd, r)
				}
			}
		}
	}
	return nil
}
