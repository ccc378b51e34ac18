package experiments

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/config"
	"repro/internal/power"
	"repro/internal/security"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Table1 renders the paper's Table 1 (Row Hammer threshold over DRAM
// generations).
func Table1() *stats.Table {
	t := stats.NewTable("DRAM Generation", "RH-Threshold")
	for _, r := range security.Table1() {
		t.AddRow(r.Generation, r.Threshold)
	}
	return t
}

// Table2 renders the baseline system configuration (the paper's Table 2).
func Table2() *stats.Table {
	cfg := config.Default()
	t := stats.NewTable("Parameter", "Value")
	t.AddRow("Cores (OoO)", cfg.Cores)
	t.AddRow("Processor clock speed", "3.2 GHz")
	t.AddRow("ROB size", cfg.ROBSize)
	t.AddRow("Fetch and Retire width", cfg.FetchWidth)
	t.AddRow("Last Level Cache (Shared)", fmt.Sprintf("%d MB, %d-way, %d B lines",
		cfg.LLCBytes>>20, cfg.LLCWays, cfg.LineBytes))
	t.AddRow("Memory size", fmt.Sprintf("%d GB - DDR4", cfg.MemoryBytes()>>30))
	t.AddRow("Memory bus speed", "1.6 GHz (3.2 GHz DDR)")
	t.AddRow("tRCD-tRP-tCAS", "14-14-14 ns")
	t.AddRow("tRC, tRFC, tREFI", "45 ns, 350 ns, 7.8 us")
	t.AddRow("Banks x Ranks x Channels", fmt.Sprintf("%d x %d x %d",
		cfg.Banks, cfg.Ranks, cfg.Channels))
	t.AddRow("Rows per bank", fmt.Sprintf("%dK", cfg.RowsPerBank>>10))
	t.AddRow("Size of row", fmt.Sprintf("%d KB", cfg.RowBytes>>10))
	return t
}

// Table3Row is one measured row of the Table 3 reproduction.
type Table3Row struct {
	Workload     trace.Workload
	MeasuredMPKI float64
	// MeasuredHotRows is rows with >= (scaled) 800 activations per epoch,
	// averaged over epochs.
	MeasuredHotRows float64
}

// Table3 reruns the workload characterization: footprint and MPKI come
// from the catalog; hot rows are measured on the simulated baseline.
func Table3(s Scale) ([]Table3Row, *stats.Table, error) {
	ws := s.workloads()
	g, err := s.sweep(s.spec(service.MitNone, 0),
		service.SweepAxes{Workloads: workloadNames(ws)})
	if err != nil {
		return nil, nil, err
	}
	var rows []Table3Row
	t := stats.NewTable("Workload", "Footprint(GB)", "MPKI(paper)", "MPKI(meas)",
		"ACT-hot(paper)", "ACT-hot(meas)")
	for _, w := range ws {
		res, err := g.at(s.spec(service.MitNone, 0, w))
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Table3Row{Workload: w, MeasuredMPKI: res.MPKI,
			MeasuredHotRows: res.HotRowsPerEpoch})
		t.AddRow(w.Name, float64(w.FootprintBytes)/(1<<30), w.MPKI, res.MPKI,
			w.HotRows, res.HotRowsPerEpoch)
	}
	return rows, t, nil
}

// Table4 reproduces the security analysis table: attack iterations and
// time for the candidate swap thresholds (and the all-bank variant for
// T = 800).
func Table4() *stats.Table {
	t := stats.NewTable("RRS Threshold (T)", "k", "Attack Iterations", "Attack Time")
	for _, T := range []int{960, 800, 685} {
		m := security.PaperModel(T)
		t.AddRow(T, m.K(), fmt.Sprintf("%.2g", m.AttackIterations()),
			security.FormatDuration(m.AttackSeconds()))
	}
	all := security.AllBankPaperModel(800)
	t.AddRow("800 (all-bank)", all.K(), fmt.Sprintf("%.2g", all.AttackIterations()),
		security.FormatDuration(all.AttackSeconds()))
	return t
}

// Table5 reproduces the storage analysis.
func Table5() *stats.Table {
	cfg := config.Default()
	t := stats.NewTable("Structure", "Entry-Size(bits)", "Entries", "Cost(KB)")
	for _, r := range power.StorageTable(cfg, power.PaperStorageParams()) {
		if r.Structure == "Total" {
			t.AddRow(r.Structure, "", "", r.KB)
			continue
		}
		if r.Entries == 0 {
			t.AddRow(r.Structure, "-", "-", r.KB)
			continue
		}
		t.AddRow(r.Structure, r.EntryBits, r.Entries, r.KB)
	}
	t.AddRow("Per rank", "", "", power.PerRankKB(cfg, power.PaperStorageParams()))
	return t
}

// Table6Result holds the measured power overheads.
type Table6Result struct {
	DRAMOverheadPercent float64
	SRAMPowerMW         float64
}

// Table6 measures the DRAM power overhead of RRS (row-swap transfers) on
// the experiment workloads and the SRAM power of the RRS structures.
func Table6(s Scale) (Table6Result, *stats.Table, error) {
	ws := s.workloads()
	g, err := s.sweep(s.spec(service.MitRRS, 0), service.SweepAxes{
		Mitigations: []string{service.MitNone, service.MitRRS},
		Workloads:   workloadNames(ws),
	})
	if err != nil {
		return Table6Result{}, nil, err
	}
	var overheads []float64
	for _, w := range ws {
		_, base, mit, err := g.normalized(s.spec(service.MitRRS, 0, w))
		if err != nil {
			return Table6Result{}, nil, err
		}
		// Runs are time-bounded, so the two configurations complete
		// different amounts of work; compare energy per instruction.
		if base.Instructions == 0 || mit.Instructions == 0 {
			continue
		}
		basePer := base.Energy.TotalMJ() / float64(base.Instructions)
		rrsPer := mit.Energy.TotalMJ() / float64(mit.Instructions)
		overheads = append(overheads, (rrsPer/basePer-1)*100)
	}
	cfg := config.Default()
	// Per-rank lookup rate: every access consults the RIT; assume the
	// paper's bus near saturation for the upper bound.
	sram := power.DefaultSRAMModel().PowerMW(power.PerRankKB(cfg, power.PaperStorageParams()), 4e8)
	res := Table6Result{
		DRAMOverheadPercent: stats.Mean(overheads),
		SRAMPowerMW:         sram,
	}
	t := stats.NewTable("Type of Power Overhead", "Average")
	t.AddRow("DRAM Power Overhead (Row-Swap)", fmt.Sprintf("%.2f%%", res.DRAMOverheadPercent))
	t.AddRow("SRAM Power Overhead (RRS Structures)", fmt.Sprintf("%.0f mW", res.SRAMPowerMW))
	return res, t, nil
}

// Table7Row is one defense/attack cell of the Table 7 comparison.
type Table7Row struct {
	Defense  string
	Attack   string
	Defended bool
	Flips    int
}

// Table7 reruns the victim-focused vs RRS comparison: classic double-sided
// and Half-Double attacks against idealized victim-focused mitigation and
// RRS. The attack substrate runs at the attack-test scale (T_RH scaled so
// the disturbance model's margins match full scale).
func Table7() ([]Table7Row, *stats.Table) {
	cfg := attack.ScaleConfig()
	alpha2 := attack.Alpha2For(cfg)

	var rows []Table7Row
	t := stats.NewTable("Defense", "Classic (double-sided)", "Complex (Half-Double)")
	for _, d := range []struct {
		name string
		mit  mitigationFactory
	}{
		{"Victim-Focused (ideal)", attackFactoryFor(service.MitIdeal)},
		{"RRS", attackFactoryFor(service.MitRRS)},
	} {
		var cells []string
		for _, mk := range []func() attack.Pattern{
			func() attack.Pattern { return attack.NewDoubleSided(100) },
			func() attack.Pattern { return attack.NewHalfDouble(100) },
		} {
			p := mk()
			ctl, fm := attack.NewSystem(cfg, 0, alpha2, d.mit)
			res := attack.Run(ctl, fm, p, attack.Options{Epochs: 3})
			rows = append(rows, Table7Row{Defense: d.name, Attack: p.Name(),
				Defended: res.Defended(), Flips: res.Flips})
			if res.Defended() {
				cells = append(cells, "mitigated")
			} else {
				cells = append(cells, fmt.Sprintf("BIT FLIPS (%d)", res.Flips))
			}
		}
		t.AddRow(d.name, cells[0], cells[1])
	}
	return rows, t
}
