// Package attack provides the Row Hammer fault model and the attack
// patterns the RRS paper discusses: classic single- and double-sided
// hammering, many-sided patterns, the Half-Double attack that defeats
// victim-focused mitigation, and the random-chase strategy that is optimal
// against RRS (Figure 7).
package attack

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/dram"
)

// FaultModel turns physical row activations into bit-flip events. It
// encodes the paper's core assumption — a row flips bits in a neighbour
// only after accumulating at least T_RH activations' worth of disturbance
// within one refresh epoch — plus the second-order coupling that makes
// Half-Double possible:
//
//   - An activation of row r restores r's own charge (activation implies
//     a refresh of the activated row) and disturbs r±1 by 1 unit and r±2
//     by Alpha2 units.
//   - A victim row flips when its accumulated disturbance reaches T_RH.
//   - The rolling refresh restores every row once per epoch (modeled at
//     the epoch boundary).
//
// Because victim refreshes issued by victim-focused mitigations are real
// activations, they restore the victim but disturb the victim's own
// neighbours — the amplification channel Half-Double exploits.
type FaultModel struct {
	cfg config.Config
	// TRH is the disturbance a victim must accumulate to flip.
	TRH float64
	// Alpha2 is the distance-2 coupling strength relative to distance-1.
	// The default 0.01 places the pure-distance-2 flip threshold at
	// 100*T_RH and reproduces the Half-Double activation budget
	// (~300K-900K activations at T_RH = 4.8K).
	Alpha2 float64

	dist  [][]float32
	dirty [][]int32
	flips []Flip
	// nearMisses counts victims whose disturbance crossed half the flip
	// threshold from below — the shootout's "how close did it get" signal
	// for defenses that show zero flips.
	nearMisses int64
	// peak is the highest disturbance ever accumulated by any victim,
	// including values later cleared by a flip or refresh.
	peak float64
}

// NearMissFraction is the fraction of TRH a victim must accumulate to
// count as a near miss.
const NearMissFraction = 0.5

// DefaultAlpha2 is the distance-2 disturbance coupling, calibrated at the
// paper's full-scale parameters (T_RH = 4.8K, ACT_max = 1.36M): it places
// the pure distance-2 flip budget near the Half-Double attack's reported
// several-hundred-K activations.
const DefaultAlpha2 = 0.01

// DoubleSidedFactor converts the per-aggressor Row Hammer threshold into a
// summed-disturbance flip threshold. T_RH is measured per aggressor row
// under double-sided hammering (two aggressors of T_RH activations each
// flip the victim), so the victim's accumulated disturbance at the flip
// point is 2*T_RH; the extra 10% absorbs second-order contributions.
const DoubleSidedFactor = 2.2

// Alpha2For returns a distance-2 coupling rescaled for a shrunken test
// configuration so the Half-Double activation budget keeps the same
// proportion of an epoch as at full scale: alpha2 scales with
// T_RH / ACT_max.
func Alpha2For(cfg config.Config) float64 {
	const fullRatio = 4800.0 / 1.42e6 // T_RH / ACT_max at paper scale
	ratio := float64(cfg.RowHammerThreshold) / float64(cfg.ACTMax())
	return DefaultAlpha2 * ratio / fullRatio
}

// Flip records one bit-flip event.
type Flip struct {
	Bank dram.BankID
	Row  int
	Time int64
}

// String implements fmt.Stringer.
func (f Flip) String() string {
	return fmt.Sprintf("flip@%v.row%d t=%d", f.Bank, f.Row, f.Time)
}

// NewFaultModel creates a fault model for sys and subscribes it to
// activations and epoch resets. trh is the summed-disturbance flip
// threshold; 0 uses DoubleSidedFactor times the configuration's
// per-aggressor RowHammerThreshold. alpha2 of 0 uses DefaultAlpha2 (pass a
// negative value to disable distance-2 coupling entirely).
func NewFaultModel(sys *dram.System, trh float64, alpha2 float64) *FaultModel {
	cfg := sys.Config()
	if trh == 0 {
		trh = DoubleSidedFactor * float64(cfg.RowHammerThreshold)
	}
	if alpha2 == 0 {
		alpha2 = DefaultAlpha2
	}
	if alpha2 < 0 {
		alpha2 = 0
	}
	n := cfg.Channels * cfg.Ranks * cfg.Banks
	m := &FaultModel{
		cfg:    cfg,
		TRH:    trh,
		Alpha2: alpha2,
		dist:   make([][]float32, n),
		dirty:  make([][]int32, n),
	}
	for i := range m.dist {
		m.dist[i] = make([]float32, cfg.RowsPerBank)
	}
	sys.Subscribe(m)
	sys.SubscribeEpoch(m.resetEpoch)
	return m
}

func (m *FaultModel) bankIndex(id dram.BankID) int {
	return (id.Channel*m.cfg.Ranks+id.Rank)*m.cfg.Banks + id.Bank
}

// OnActivate implements dram.ActListener.
func (m *FaultModel) OnActivate(id dram.BankID, row int, now int64) {
	bi := m.bankIndex(id)
	d := m.dist[bi]
	// Activation restores the activated row's charge.
	d[row] = 0
	m.disturb(id, bi, row-1, 1, now)
	m.disturb(id, bi, row+1, 1, now)
	if m.Alpha2 > 0 {
		m.disturb(id, bi, row-2, float32(m.Alpha2), now)
		m.disturb(id, bi, row+2, float32(m.Alpha2), now)
	}
}

func (m *FaultModel) disturb(id dram.BankID, bi, victim int, amount float32, now int64) {
	if victim < 0 || victim >= m.cfg.RowsPerBank {
		return
	}
	d := m.dist[bi]
	if d[victim] == 0 {
		m.dirty[bi] = append(m.dirty[bi], int32(victim))
	}
	prev := float64(d[victim])
	d[victim] += amount
	cur := float64(d[victim])
	if cur > m.peak {
		m.peak = cur
	}
	if half := m.TRH * NearMissFraction; prev < half && cur >= half {
		m.nearMisses++
	}
	if cur >= m.TRH {
		m.flips = append(m.flips, Flip{Bank: id, Row: victim, Time: now})
		d[victim] = 0
	}
}

// resetEpoch models the rolling refresh restoring every row once per
// epoch.
func (m *FaultModel) resetEpoch() {
	for bi := range m.dist {
		d := m.dist[bi]
		for _, r := range m.dirty[bi] {
			d[r] = 0
		}
		m.dirty[bi] = m.dirty[bi][:0]
	}
}

// Flips returns all recorded bit-flip events.
func (m *FaultModel) Flips() []Flip { return append([]Flip(nil), m.flips...) }

// FlipCount returns the number of bit-flip events so far.
func (m *FaultModel) FlipCount() int { return len(m.flips) }

// NearMisses returns how many times a victim's disturbance crossed
// NearMissFraction of the flip threshold from below. A defense with zero
// flips but many near misses is operating at the edge of its guarantee.
func (m *FaultModel) NearMisses() int64 { return m.nearMisses }

// PeakDisturbance returns the highest disturbance any victim ever
// accumulated, as a fraction of the flip threshold (1.0 means a flip
// occurred).
func (m *FaultModel) PeakDisturbance() float64 { return m.peak / m.TRH }

// Disturbance returns the victim row's accumulated disturbance (tests).
func (m *FaultModel) Disturbance(id dram.BankID, row int) float64 {
	return float64(m.dist[m.bankIndex(id)][row])
}
