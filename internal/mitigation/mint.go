package mitigation

import (
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/memctrl"
	"repro/internal/prince"
)

// MINT models the minimalist in-DRAM tracker of arXiv 2407.16038: per
// bank, ONE row register and a sampling counter. At the start of each
// tREFI window the bank draws a uniform index in [0, W) where W is the
// number of activations that fit in the window; the activation at that
// index is latched, and at the window boundary the latched row's
// neighbours are refreshed. Uniform sampling makes every activation
// equally likely to be selected, so a row hammered k times in a window
// is mitigated with probability k/W per window — the paper shows this
// matches Graphene-class security at a tiny fraction of the state.
//
// Simplifications versus the paper, documented in DESIGN.md §11: the
// window boundary is detected lazily on the next activation of the same
// bank (an idle bank's pending refresh fires on its next use or is
// dropped at the epoch boundary, where the global refresh covers it).
type MINT struct {
	verifier
	observer
	sys *dram.System
	cfg config.Config
	// w is the per-window activation budget the sampler draws from.
	w     int64
	units []mintUnit
	stat  VictimStats
}

// mintUnit is one bank's MINT hardware: one sampled-row register plus
// the sampling counter — the paper's "1 counter" cost.
type mintUnit struct {
	rng *prince.CTR
	// window is the tREFI window index the unit last observed.
	window int64
	// actIdx counts activations within the current window.
	actIdx int64
	// pickIdx is this window's sampled activation index in [0, w).
	pickIdx int64
	// latched is the physical row captured at pickIdx, or -1.
	latched int32
}

// NewMINT creates the mitigation over sys.
func NewMINT(sys *dram.System, seed uint64) *MINT {
	cfg := sys.Config()
	w := int64(cfg.TREFI) / int64(cfg.TRC)
	if w < 1 {
		w = 1
	}
	nBanks := cfg.Channels * cfg.Ranks * cfg.Banks
	m := &MINT{
		sys:   sys,
		cfg:   cfg,
		w:     w,
		units: make([]mintUnit, nBanks),
	}
	seeds := prince.Seeded(seed)
	for i := range m.units {
		u := &m.units[i]
		u.rng = prince.NewCTR(seeds.Next(), seeds.Next())
		u.window = -1
		u.latched = -1
		u.pickIdx = int64(u.rng.Uint64n(uint64(w)))
	}
	return m
}

// Stats returns refresh activity counts.
func (m *MINT) Stats() VictimStats { return m.stat }

// WindowActs returns W, the sampled-from activation budget per tREFI.
func (m *MINT) WindowActs() int64 { return m.w }

// Remap implements memctrl.Mitigation; MINT does not move rows.
func (m *MINT) Remap(_ dram.BankID, row int) int { return row }

// ActivateDelay implements memctrl.Mitigation; MINT never throttles.
func (m *MINT) ActivateDelay(dram.BankID, int, int64) int64 { return 0 }

// AccessPenalty implements memctrl.Mitigation; the tracker lives in DRAM
// and adds no controller-side lookup.
func (m *MINT) AccessPenalty() int64 { return 0 }

// OnEpoch implements memctrl.Mitigation: the epoch's full refresh covers
// any pending sample, so latches are dropped rather than serviced.
func (m *MINT) OnEpoch(int64) {
	for i := range m.units {
		u := &m.units[i]
		u.window = -1
		u.latched = -1
		u.actIdx = 0
		u.pickIdx = int64(u.rng.Uint64n(uint64(m.w)))
	}
}

// OnActivate implements memctrl.Mitigation: roll the window forward if
// now crossed a tREFI boundary (servicing the previous window's sample),
// then latch this activation if it is the sampled one.
func (m *MINT) OnActivate(id dram.BankID, _, physRow int, now int64) memctrl.ActResult {
	bi := bankIndex(m.cfg, id)
	u := &m.units[bi]
	var res memctrl.ActResult
	if w, _ := m.sys.RefreshWindow(now); w != u.window {
		if u.latched >= 0 {
			n := refreshNeighbors(m.sys, id, int(u.latched), 1, now)
			m.stat.Mitigations++
			m.stat.Refreshes += int64(n)
			m.recordRefresh(int32(bi), int(u.latched), n, now)
			res.BankBlock = victimRefreshCost(m.cfg, n)
			u.latched = -1
		}
		u.window = w
		u.actIdx = 0
		u.pickIdx = int64(u.rng.Uint64n(uint64(m.w)))
	}
	if u.actIdx == u.pickIdx {
		u.latched = int32(physRow)
	}
	u.actIdx++
	return res
}

// EnableParanoid attaches the shared DRAM checks plus MINT's structural
// catalog.
func (m *MINT) EnableParanoid(eng *invariant.Engine) {
	m.attach(eng, m.sys)
	eng.Register("mint/window", m.CheckInvariants)
}

// CheckInvariants verifies each unit's sampler state is inside its
// design envelope: the pick index within the window budget and the
// latched row within the bank.
func (m *MINT) CheckInvariants() error {
	for i := range m.units {
		u := &m.units[i]
		if u.pickIdx < 0 || u.pickIdx >= m.w {
			return invariant.Violatedf("mint/window",
				"bank %d: pickIdx %d outside [0, %d)", i, u.pickIdx, m.w)
		}
		if u.actIdx < 0 {
			return invariant.Violatedf("mint/window",
				"bank %d: negative actIdx %d", i, u.actIdx)
		}
		if u.latched < -1 || int(u.latched) >= m.cfg.RowsPerBank {
			return invariant.Violatedf("mint/window",
				"bank %d: latched row %d outside bank", i, u.latched)
		}
	}
	return nil
}
