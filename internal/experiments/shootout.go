package experiments

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/power"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/tracker"
)

// ShootoutMitigations is the full defense zoo the shootout compares, in
// presentation order: the paper's four baselines plus RRS and its four
// successors.
func ShootoutMitigations() []string {
	return []string{
		service.MitRRS, service.MitPARA, service.MitGraphene,
		service.MitIdeal, service.MitBlockHammer, service.MitSRS,
		service.MitRubix, service.MitMINT, service.MitPrIDE,
		service.MitDAPPER,
	}
}

// shootoutAttacks names the attack legs of the shootout, in column order.
var shootoutAttacks = []string{"double-sided", "half-double", "juggling"}

// ShootoutRow is one defense's line of the cross-mitigation comparison.
type ShootoutRow struct {
	// Mitigation is the defense's service name.
	Mitigation string
	// NormPerf is geomean IPC normalized to the unprotected baseline
	// across the scale's workloads.
	NormPerf float64
	// Flips maps attack name to bit-flip count.
	Flips map[string]int
	// NearMisses sums, over the attack legs, how often a victim crossed
	// half the flip threshold.
	NearMisses int64
	// SRAMKBPerBank is the analytic per-bank SRAM cost at full scale.
	SRAMKBPerBank float64
}

// Defended reports whether the defense survived every attack leg.
func (r ShootoutRow) Defended() bool {
	for _, f := range r.Flips {
		if f > 0 {
			return false
		}
	}
	return true
}

// shootoutParanoid is the paranoid wiring the zoo defenses and core.RRS
// share (the same contract sim.Run discovers by type assertion).
type shootoutParanoid interface {
	EnableParanoid(*invariant.Engine)
	Err() error
}

// Shootout runs the cross-defense comparison: every mitigation under the
// same workloads (perf leg, normalized to the unprotected baseline) and
// the same attack patterns (security leg at the attack scale), plus the
// analytic SRAM cost, in one table. mitigations of nil runs the full zoo
// (ShootoutMitigations). With paranoid set, both legs run under the
// invariant engine and any violation fails the experiment.
func Shootout(s Scale, mitigations []string, paranoid bool) ([]ShootoutRow, *stats.Table, error) {
	if len(mitigations) == 0 {
		mitigations = ShootoutMitigations()
	}
	for _, name := range mitigations {
		if _, err := service.MitigationFactory(name, max(1, s.Factor), 0); err != nil {
			return nil, nil, err
		}
	}

	// Perf leg: one unprotected baseline per workload, shared by every
	// defense. The whole leg — baseline plus the zoo — is a single sweep.
	ws := s.workloads()
	type perfKey struct{ mit, workload string }
	baseSpec := s.spec(service.MitNone, 0)
	baseSpec.Paranoid = paranoid
	g, err := s.sweep(baseSpec, service.SweepAxes{
		Mitigations: append([]string{service.MitNone}, mitigations...),
		Workloads:   workloadNames(ws),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("shootout sweep: %w", err)
	}
	baseIPC := make(map[string]float64, len(ws))
	for _, w := range ws {
		spec := s.spec(service.MitNone, 0, w)
		spec.Paranoid = paranoid
		res, err := g.at(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("shootout baseline: %w", err)
		}
		if res.IPC == 0 {
			return nil, nil, fmt.Errorf("shootout: baseline IPC is zero for %s", w.Name)
		}
		baseIPC[w.Name] = res.IPC
	}
	perf := make(map[perfKey]float64, len(mitigations)*len(ws))
	for _, name := range mitigations {
		for _, w := range ws {
			spec := s.spec(name, 0, w)
			spec.Paranoid = paranoid
			res, err := g.at(spec)
			if err != nil {
				return nil, nil, fmt.Errorf("shootout %s: %w", name, err)
			}
			perf[perfKey{name, w.Name}] = res.IPC / baseIPC[w.Name]
		}
	}

	// Security leg: the three attack patterns at the attack scale.
	var rows []ShootoutRow
	for _, name := range mitigations {
		row := ShootoutRow{
			Mitigation:    name,
			Flips:         make(map[string]int, len(shootoutAttacks)),
			SRAMKBPerBank: sramKBPerBank(name),
		}
		var norms []float64
		for _, w := range ws {
			norms = append(norms, perf[perfKey{name, w.Name}])
		}
		row.NormPerf = stats.GeoMean(norms)
		for _, att := range shootoutAttacks {
			res, near, err := runShootoutAttack(name, att, paranoid)
			if err != nil {
				return nil, nil, fmt.Errorf("shootout %s vs %s: %w", name, att, err)
			}
			row.Flips[att] = res.Flips
			row.NearMisses += near
		}
		rows = append(rows, row)
	}

	t := stats.NewTable("Mitigation", "Norm. perf",
		"Double-sided", "Half-Double", "Juggling", "Near-misses", "SRAM KB/bank")
	for _, r := range rows {
		cells := make([]string, len(shootoutAttacks))
		for i, att := range shootoutAttacks {
			if f := r.Flips[att]; f > 0 {
				cells[i] = fmt.Sprintf("BIT FLIPS (%d)", f)
			} else {
				cells[i] = "mitigated"
			}
		}
		t.AddRow(r.Mitigation, fmt.Sprintf("%.3f", r.NormPerf),
			cells[0], cells[1], cells[2], r.NearMisses,
			fmt.Sprintf("%.3f", r.SRAMKBPerBank))
	}
	return rows, t, nil
}

// runShootoutAttack runs one defense/attack cell at the attack scale,
// optionally under the invariant engine, and returns the attack result
// plus the fault model's near-miss count.
func runShootoutAttack(mit, att string, paranoid bool) (attack.Result, int64, error) {
	cfg := attackScaleConfig()
	ctl, fm := attack.NewSystem(cfg, 0, attack.Alpha2For(cfg), attackFactoryFor(mit))

	var eng *invariant.Engine
	if paranoid {
		eng = invariant.NewEngine()
		if pm, ok := ctl.Mitigation().(shootoutParanoid); ok {
			pm.EnableParanoid(eng)
		} else {
			ctl.System().EnableParanoid(eng)
			eng.Register("dram/structure", ctl.System().CheckInvariants)
		}
	}

	var p attack.Pattern
	bank := dram.BankID{}
	switch att {
	case "double-sided":
		p = attack.NewDoubleSided(100)
	case "half-double":
		p = attack.NewHalfDouble(100)
	case "juggling":
		p = attack.NewJuggling(100, attack.OccupantOracle(ctl, bank))
	default:
		return attack.Result{}, 0, fmt.Errorf("unknown attack %q", att)
	}

	res := attack.Run(ctl, fm, p, attack.Options{Bank: bank, Epochs: 3})
	if eng != nil {
		if err := eng.RunAll(); err != nil {
			return attack.Result{}, 0, err
		}
		if err := eng.Err(); err != nil {
			return attack.Result{}, 0, err
		}
	}
	return res, fm.NearMisses(), nil
}

// attackFactoryFor builds the defense for the attack substrate. The swap
// defenses use their unscaled (full-cost) parameters, matching the other
// attack experiments: the attack config already rescales T_RH, and the
// swap-cost/epoch proportion is not what the security leg measures.
func attackFactoryFor(name string) mitigationFactory {
	switch name {
	case service.MitNone:
		return noFactory
	case service.MitRRS:
		return attackRRSFactory
	case service.MitRRSCAM:
		return attackRRSCAMFactory
	case service.MitPARA:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewPARA(sys,
				mitigation.DefaultPARAProbability(sys.Config().RowHammerThreshold), 7)
		}
	case service.MitGraphene:
		return grapheneFactory
	case service.MitIdeal:
		return idealFactory
	case service.MitBlockHammer:
		return attackBlockHammerFactory
	case service.MitSRS:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewSRS(sys, mitigation.DefaultSRSParams(sys.Config()))
		}
	case service.MitRubix:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewRubix(sys,
				mitigation.DefaultPARAProbability(sys.Config().RowHammerThreshold), 11)
		}
	case service.MitMINT:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewMINT(sys, 13)
		}
	case service.MitPrIDE:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewPrIDE(sys,
				mitigation.DefaultPrIDEProbability(sys.Config()), 17)
		}
	case service.MitDAPPER:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewDAPPER(sys,
				mitigation.DefaultPrIDEProbability(sys.Config()), 19)
		}
	default:
		panic(fmt.Sprintf("experiments: no attack factory for %q", name))
	}
}

// sramKBPerBank is the shootout's analytic per-bank SRAM cost at the
// full-scale configuration (DESIGN.md §11 derives each formula).
func sramKBPerBank(name string) float64 {
	cfg := config.Default()
	rowBits := storageBits(cfg.RowsPerBank)
	trh := cfg.RowHammerThreshold
	switch name {
	case service.MitRRS, service.MitRRSCAM:
		// The paper's Table 5 geometry: RIT + tracker + swap buffers.
		tbl := power.StorageTable(cfg, power.PaperStorageParams())
		return tbl[len(tbl)-1].KB
	case service.MitSRS:
		// One unified table: ACT_max/T entries of (valid + lock + logical
		// row + physical row + counter).
		t := trh / 6
		entries := tracker.EntriesFor(cfg.ACTMax(), t)
		entryBits := 2 + 2*rowBits + storageBits(t)
		return float64(entries*entryBits) / 8 / 1024
	case service.MitRubix:
		// Two 64-bit mapping keys per bank; no per-row state.
		return 16.0 / 1024
	case service.MitMINT:
		// One sampled-row register, the activation index and the sampled
		// index (the paper's "1 counter" tracker).
		w := int(int64(cfg.TREFI) / int64(cfg.TRC))
		return float64(rowBits+2*storageBits(w)) / 8 / 1024
	case service.MitPrIDE, service.MitDAPPER:
		// The fixed aggressor FIFO plus head/occupancy indices.
		return float64(prideSRAMEntries*rowBits+2*storageBits(prideSRAMEntries)) / 8 / 1024
	case service.MitGraphene:
		// Misra-Gries CAM sized for the Graphene threshold: entries of
		// (valid + row + counter) plus the spill counter.
		t := int(mitigation.DefaultGrapheneThreshold(trh))
		entries := tracker.EntriesFor(cfg.ACTMax(), t)
		entryBits := 1 + rowBits + storageBits(t)
		return float64(entries*entryBits+storageBits(t)) / 8 / 1024
	case service.MitIdeal:
		// A full counter per row — the cost that makes "ideal" unbuildable.
		return float64(cfg.RowsPerBank*storageBits(trh)) / 8 / 1024
	case service.MitBlockHammer:
		// The counting Bloom filter pair (active + shadow generation).
		p := mitigation.DefaultBlockHammerParams()
		return float64(2*p.Counters*storageBits(int(p.BlacklistThreshold))) / 8 / 1024
	case service.MitPARA, service.MitNone:
		return 0
	default:
		return 0
	}
}

// prideSRAMEntries mirrors the pride queue depth for the storage model
// (the implementation constant is unexported by design).
const prideSRAMEntries = 8

// storageBits returns ceil(log2(n)) for n > 1 (field width for values
// in [0, n)).
func storageBits(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}
