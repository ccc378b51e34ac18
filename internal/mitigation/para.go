package mitigation

import (
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/prince"
)

// PARA is the stateless probabilistic victim-refresh mitigation: on every
// activation, with probability p, both immediate neighbours of the
// activated row are refreshed.
type PARA struct {
	sys  *dram.System
	cfg  config.Config
	p    float64
	rng  *prince.CTR
	stat VictimStats
}

// DefaultPARAProbability returns a p that keeps the expected unmitigated
// activation run below the Row Hammer threshold with large margin: the
// probability that a row sustains T_RH activations without any mitigation
// is (1-p)^T_RH; p = 12/T_RH drives that below e^-12 per epoch.
func DefaultPARAProbability(trh int) float64 {
	if trh <= 0 {
		return 1
	}
	p := 12.0 / float64(trh)
	if p > 1 {
		p = 1
	}
	return p
}

// NewPARA creates a PARA mitigation with refresh probability p per
// activation.
func NewPARA(sys *dram.System, p float64, seed uint64) *PARA {
	return &PARA{sys: sys, cfg: sys.Config(), p: p, rng: prince.Seeded(seed)}
}

// Stats returns mitigation counters.
func (m *PARA) Stats() VictimStats { return m.stat }

// Remap implements memctrl.Mitigation (identity: no indirection).
func (m *PARA) Remap(_ dram.BankID, row int) int { return row }

// ActivateDelay implements memctrl.Mitigation.
func (m *PARA) ActivateDelay(dram.BankID, int, int64) int64 { return 0 }

// AccessPenalty implements memctrl.Mitigation.
func (m *PARA) AccessPenalty() int64 { return 0 }

// OnEpoch implements memctrl.Mitigation (PARA is stateless).
func (m *PARA) OnEpoch(int64) {}

// OnActivate implements memctrl.Mitigation.
func (m *PARA) OnActivate(id dram.BankID, _, physRow int, now int64) memctrl.ActResult {
	if m.rng.Float64() >= m.p {
		return memctrl.ActResult{}
	}
	m.stat.Mitigations++
	n := refreshNeighbors(m.sys, id, physRow, 1, now)
	m.stat.Refreshes += int64(n)
	return memctrl.ActResult{BankBlock: victimRefreshCost(m.cfg, n)}
}
