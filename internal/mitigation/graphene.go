package mitigation

import (
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/tracker"
)

// Graphene is the representative victim-focused mitigation: a per-bank
// Misra-Gries tracker (exactly the HRT machinery RRS reuses), but the
// mitigating action refreshes the aggressor's immediate neighbours instead
// of swapping the aggressor away. It stops classic Row Hammer yet keeps
// the aggressor next to its victims — the weakness Half-Double exploits.
type Graphene struct {
	sys   *dram.System
	cfg   config.Config
	units []tracker.Tracker
	stat  VictimStats
	// BlastRadius is how many neighbours on each side get refreshed
	// (1 in the original; 2 in the "refresh two neighbours" variant the
	// paper argues is still insufficient).
	blastRadius int
}

// DefaultGrapheneThreshold returns the victim-refresh threshold for a
// given Row Hammer threshold: T_RH/4, accounting for double-sided attacks
// (each victim has two aggressors) with 2x margin.
func DefaultGrapheneThreshold(trh int) int64 {
	t := int64(trh / 4)
	if t < 1 {
		t = 1
	}
	return t
}

// NewGraphene creates the tracker+victim-refresh mitigation. threshold is
// the per-row activation count between refreshes of its neighbours;
// blastRadius is the refresh distance (1 refreshes r±1).
func NewGraphene(sys *dram.System, threshold int64, blastRadius int, seed uint64) *Graphene {
	cfg := sys.Config()
	entries := tracker.EntriesFor(cfg.ACTMax(), int(threshold))
	n := cfg.Channels * cfg.Ranks * cfg.Banks
	g := &Graphene{sys: sys, cfg: cfg, units: make([]tracker.Tracker, n), blastRadius: blastRadius}
	for i := range g.units {
		u, err := tracker.NewCAM(entries, threshold)
		if err != nil {
			// EntriesFor guarantees entries >= 1 and rejects threshold <= 0.
			panic(err)
		}
		g.units[i] = u
	}
	return g
}

// Stats returns mitigation counters.
func (m *Graphene) Stats() VictimStats { return m.stat }

// Remap implements memctrl.Mitigation (identity: no indirection).
func (m *Graphene) Remap(_ dram.BankID, row int) int { return row }

// ActivateDelay implements memctrl.Mitigation.
func (m *Graphene) ActivateDelay(dram.BankID, int, int64) int64 { return 0 }

// AccessPenalty implements memctrl.Mitigation.
func (m *Graphene) AccessPenalty() int64 { return 0 }

// OnEpoch implements memctrl.Mitigation.
func (m *Graphene) OnEpoch(int64) {
	for _, u := range m.units {
		u.Reset()
	}
}

// OnActivate implements memctrl.Mitigation.
func (m *Graphene) OnActivate(id dram.BankID, row, physRow int, now int64) memctrl.ActResult {
	u := m.units[bankIndex(m.cfg, id)]
	if !u.Observe(uint64(row)) {
		return memctrl.ActResult{}
	}
	m.stat.Mitigations++
	n := 0
	for d := 1; d <= m.blastRadius; d++ {
		n += refreshNeighbors(m.sys, id, physRow, d, now)
	}
	m.stat.Refreshes += int64(n)
	return memctrl.ActResult{BankBlock: victimRefreshCost(m.cfg, n)}
}
