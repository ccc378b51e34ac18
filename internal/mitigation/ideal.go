package mitigation

import (
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/memctrl"
)

// Ideal is victim-focused mitigation with idealized tracking (Table 7):
// exact per-row activation counters with no storage limit and no overhead.
// Every threshold-th activation of a row refreshes its immediate
// neighbours. It upper-bounds what any victim-focused tracker can do —
// and still loses to Half-Double, which is the paper's point.
type Ideal struct {
	sys       *dram.System
	cfg       config.Config
	threshold int64
	counts    []map[int]int64 // per bank: row -> activations this epoch
	stat      VictimStats
	// Free models the "no overhead" idealization: when true, victim
	// refreshes cost no bank time.
	Free bool
}

// NewIdeal creates the idealized victim-focused mitigation.
func NewIdeal(sys *dram.System, threshold int64) *Ideal {
	cfg := sys.Config()
	n := cfg.Channels * cfg.Ranks * cfg.Banks
	m := &Ideal{sys: sys, cfg: cfg, threshold: threshold, counts: make([]map[int]int64, n), Free: true}
	for i := range m.counts {
		m.counts[i] = make(map[int]int64)
	}
	return m
}

// Stats returns mitigation counters.
func (m *Ideal) Stats() VictimStats { return m.stat }

// Remap implements memctrl.Mitigation (identity: no indirection).
func (m *Ideal) Remap(_ dram.BankID, row int) int { return row }

// ActivateDelay implements memctrl.Mitigation.
func (m *Ideal) ActivateDelay(dram.BankID, int, int64) int64 { return 0 }

// AccessPenalty implements memctrl.Mitigation.
func (m *Ideal) AccessPenalty() int64 { return 0 }

// OnEpoch implements memctrl.Mitigation.
func (m *Ideal) OnEpoch(int64) {
	for i := range m.counts {
		clear(m.counts[i])
	}
}

// OnActivate implements memctrl.Mitigation.
func (m *Ideal) OnActivate(id dram.BankID, row, physRow int, now int64) memctrl.ActResult {
	c := m.counts[bankIndex(m.cfg, id)]
	c[row]++
	if c[row]%m.threshold != 0 {
		return memctrl.ActResult{}
	}
	m.stat.Mitigations++
	n := refreshNeighbors(m.sys, id, physRow, 1, now)
	m.stat.Refreshes += int64(n)
	if m.Free {
		return memctrl.ActResult{}
	}
	return memctrl.ActResult{BankBlock: victimRefreshCost(m.cfg, n)}
}
