// Package mitigation implements the Row Hammer defenses the RRS paper
// compares against, plus the successor-defense zoo:
//
//   - PARA: stateless probabilistic victim refresh (Kim et al., ISCA 2014).
//   - Graphene: Misra-Gries tracking with victim refresh (MICRO 2020) —
//     the representative *victim-focused* mitigation.
//   - Ideal: victim refresh with perfect per-row counters (Table 7's
//     "idealized tracking").
//   - BlockHammer: counting-Bloom-filter blacklisting with activation
//     throttling (HPCA 2021) — the other *aggressor-focused* mitigation.
//   - SRS: Scalable/Secure Row-Swap (arXiv 2212.12613) — swap tracking
//     keyed by *physical slot* in one unified structure, closing RRS's
//     juggling-attack exposure at a fraction of the SRAM.
//   - Rubix: randomized line-to-row mapping (arXiv 2308.14907) — a static
//     keyed permutation that destroys aggressor/victim adjacency, backed
//     by PARA-grade probabilistic refresh.
//   - MINT: minimalist in-DRAM tracker (arXiv 2407.16038) — one uniformly
//     sampled activation per tREFI window, refreshed at the boundary.
//   - PrIDE / DAPPER: probabilistic tracker management (arXiv 2404.16256 /
//     2501.18857) — a sampled FIFO of aggressors serviced once per tREFI,
//     with drop (PrIDE) or random-replacement (DAPPER) overflow policy.
//
// All implement memctrl.Mitigation. Victim refreshes are modeled as real
// activations of the neighbouring physical rows: an activation restores
// the charge of the row it targets while disturbing that row's own
// neighbours — exactly the mechanism the Half-Double attack exploits.
package mitigation

import (
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/memctrl"
	"repro/internal/obs"
)

// refreshNeighbors activates the rows dist below and dist above row, in
// that order, skipping any outside the bank. It returns the number of
// activations performed so callers can charge bank time.
func refreshNeighbors(sys *dram.System, id dram.BankID, row, dist int, now int64) int {
	n := 0
	if row-dist >= 0 {
		sys.Activate(id, row-dist, now)
		n++
	}
	if row+dist < sys.Config().RowsPerBank {
		sys.Activate(id, row+dist, now)
		n++
	}
	return n
}

// victimRefreshCost returns the bank-block cycles for n refresh
// activations (each occupies the bank for a full row cycle).
func victimRefreshCost(cfg config.Config, n int) int64 {
	return int64(n) * int64(cfg.TRC)
}

// bankIndex flattens a BankID for per-bank state slices.
func bankIndex(cfg config.Config, id dram.BankID) int {
	return (id.Channel*cfg.Ranks+id.Rank)*cfg.Banks + id.Bank
}

// VictimStats counts victim-refresh activity, shared by the victim-focused
// mitigations.
type VictimStats struct {
	// Mitigations is the number of times the defense fired.
	Mitigations int64
	// Refreshes is the number of neighbor-row refresh activations issued.
	Refreshes int64
}

// verifier is the paranoid-mode plumbing every zoo defense embeds: it
// holds the run's invariant engine and exposes the Err poll the
// simulation loop uses. attach mirrors what sim.Run does for RRS — the
// DRAM swap-conservation verifier plus the structural DRAM catalog — so
// a zoo run under -paranoid covers the memory model and the defense's
// own checks through one engine.
type verifier struct {
	eng *invariant.Engine
}

// attach wires the shared DRAM checks and remembers the engine; the
// defense's EnableParanoid registers its own structural checks on top.
func (v *verifier) attach(eng *invariant.Engine, sys *dram.System) {
	v.eng = eng
	sys.EnableParanoid(eng)
	eng.Register("dram/structure", sys.CheckInvariants)
}

// Err returns the first violation the engine latched, or nil. It
// implements the sim loop's paranoid poll for the zoo defenses.
func (v *verifier) Err() error {
	if v.eng == nil {
		return nil
	}
	return v.eng.Err()
}

// observer is the observability plumbing the zoo defenses embed: one nil
// test on the hot path, like the core package's recorder discipline.
type observer struct {
	rec *obs.Recorder
}

// EnableObs attaches an event recorder; nil detaches.
func (o *observer) EnableObs(rec *obs.Recorder) { o.rec = rec }

// recordRefresh emits the victim-refresh event for physical row phys.
func (o *observer) recordRefresh(bank int32, phys int, n int, now int64) {
	if rec := o.rec; rec != nil {
		rec.Record(obs.KindVictimRefresh, bank, uint64(phys), uint64(n), now, 0)
	}
}

var _ memctrl.Mitigation = (*PARA)(nil)
var _ memctrl.Mitigation = (*Graphene)(nil)
var _ memctrl.Mitigation = (*Ideal)(nil)
var _ memctrl.Mitigation = (*BlockHammer)(nil)
var _ memctrl.Mitigation = (*SRS)(nil)
var _ memctrl.Mitigation = (*Rubix)(nil)
var _ memctrl.Mitigation = (*MINT)(nil)
var _ memctrl.Mitigation = (*PrIDE)(nil)
