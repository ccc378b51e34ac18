package experiments

import (
	"fmt"
	"sort"

	"repro/internal/attack"
	"repro/internal/cat"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Figure5Row is one workload's swap count.
type Figure5Row struct {
	Workload      string
	SwapsPerEpoch float64
}

// Figure5 measures the average number of row-swaps per epoch for each
// workload under RRS (the paper reports an average of 68 per 64 ms across
// 78 workloads, with hmmer and bzip2 near 1000).
func Figure5(s Scale) ([]Figure5Row, *stats.Table, error) {
	ws := s.workloads()
	g, err := s.sweep(s.spec(service.MitRRS, 0),
		service.SweepAxes{Workloads: workloadNames(ws)})
	if err != nil {
		return nil, nil, err
	}
	var rows []Figure5Row
	t := stats.NewTable("Workload", "Swaps/epoch", "Paper hot rows")
	var sum float64
	for _, w := range ws {
		res, err := g.at(s.spec(service.MitRRS, 0, w))
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Figure5Row{Workload: w.Name, SwapsPerEpoch: res.SwapsPerEpoch})
		t.AddRow(w.Name, res.SwapsPerEpoch, w.HotRows)
		sum += res.SwapsPerEpoch
	}
	t.AddRow("MEAN", sum/float64(len(rows)), "")
	return rows, t, nil
}

// Figure6Row is one workload's normalized performance.
type Figure6Row struct {
	Workload   string
	Normalized float64
}

// Figure6 measures the performance of RRS normalized to the unprotected
// baseline (the paper's headline: 0.4% average slowdown).
func Figure6(s Scale) ([]Figure6Row, *stats.Table, error) {
	return normalizedPerf(s, service.MitRRS, 0, "RRS")
}

func normalizedPerf(s Scale, mit string, blacklist uint32, label string) ([]Figure6Row, *stats.Table, error) {
	ws := s.workloads()
	// One sweep covers the defense and its unprotected baseline; the
	// baseline children's blacklist normalizes away, so they dedup into
	// one job per workload regardless of the defense's tracker size.
	g, err := s.sweep(s.spec(mit, blacklist), service.SweepAxes{
		Mitigations: []string{service.MitNone, mit},
		Workloads:   workloadNames(ws),
	})
	if err != nil {
		return nil, nil, err
	}
	var rows []Figure6Row
	var norms []float64
	t := stats.NewTable("Workload", label+" normalized perf")
	for _, w := range ws {
		norm, _, _, err := g.normalized(s.spec(mit, blacklist, w))
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Figure6Row{Workload: w.Name, Normalized: norm})
		norms = append(norms, norm)
		t.AddRow(w.Name, norm)
	}
	t.AddRow("GEOMEAN", stats.GeoMean(norms))
	return rows, t, nil
}

// Figure7 demonstrates the optimal attacker strategy against RRS (the
// random-chase pattern) and reports what it achieves: every chased row is
// swapped away after T_RRS activations and no bit flips occur.
func Figure7(epochs int) (attack.Result, *stats.Table) {
	cfg := attackScaleConfig()
	p := attack.NewRandomChase(cfg.RowHammerThreshold/6, cfg.RowsPerBank, 0xF16)
	ctl, fm := attack.NewSystem(cfg, 0, attack.Alpha2For(cfg), attackRRSFactory)
	res := attack.Run(ctl, fm, p, attack.Options{Epochs: epochs})

	rrs := ctl.Mitigation().(*core.RRS)
	st := rrs.Stats()
	t := stats.NewTable("Metric", "Value")
	t.AddRow("Attack pattern", p.Name())
	t.AddRow("Epochs attacked", epochs)
	t.AddRow("Attacker accesses", res.Accesses)
	t.AddRow("Rows chased (swaps)", st.Swaps)
	t.AddRow("Re-swaps (chance re-discoveries)", st.Reswaps)
	t.AddRow("Bit flips", res.Flips)
	return res, t
}

// Figure9Point is one extra-ways point of the CAT conflict experiment.
type Figure9Point struct {
	ExtraWays     int
	Log10Installs float64
	Measured      bool
}

// Figure9Options sizes the Monte Carlo portion.
type Figure9Options struct {
	// Sets and DemandWays define the CAT (paper: 64 sets, 14 demand ways).
	Sets       int
	DemandWays int
	// MeasureUpTo runs Monte Carlo for extra ways 1..MeasureUpTo and
	// extrapolates beyond (the paper measures 1-4 and extrapolates 5-6).
	MeasureUpTo int
	// MaxInstalls bounds each Monte Carlo run.
	MaxInstalls int64
	Trials      int
	Seed        uint64
}

// DefaultFigure9Options measures extra ways 1-3 by Monte Carlo (E = 1-2
// conflict near the capacity-fill transient; the power-of-two-choices
// growth shows from E = 3) and extrapolates 4-6 by the continued-squaring
// model, as the paper does for its own high-E points. Raise MeasureUpTo
// (and MaxInstalls) on a many-core machine for deeper anchors.
func DefaultFigure9Options() Figure9Options {
	return Figure9Options{
		Sets: 64, DemandWays: 14,
		MeasureUpTo: 3, MaxInstalls: 5e7, Trials: 3, Seed: 9,
	}
}

// Figure9 reproduces the installs-to-conflict curve.
func Figure9(o Figure9Options) ([]Figure9Point, *stats.Table) {
	measured := map[int]float64{}
	for e := 1; e <= o.MeasureUpTo; e++ {
		r := cat.ConflictExperiment{
			Sets: o.Sets, DemandWays: o.DemandWays, ExtraWays: e,
			MaxInstalls: o.MaxInstalls, Trials: o.Trials, Seed: o.Seed,
		}.Run()
		if r.Conflicted > 0 {
			measured[e] = r.MeanInstalls
		}
	}
	ext := cat.ExtrapolateInstalls(measured, 1, 6)

	var pts []Figure9Point
	t := stats.NewTable("Extra ways", "log10(installs to conflict)", "Source")
	for e := 1; e <= 6; e++ {
		v, ok := ext[e]
		if !ok {
			continue
		}
		_, meas := measured[e]
		src := "extrapolated"
		if meas {
			src = "measured"
		}
		pts = append(pts, Figure9Point{ExtraWays: e, Log10Installs: v, Measured: meas})
		t.AddRow(e, v, src)
	}
	return pts, t
}

// Figure10Point is one Row Hammer threshold multiplier's average slowdown.
type Figure10Point struct {
	Multiplier float64
	TRH        int
	GeoMean    float64
}

// Figure10 sweeps the Row Hammer threshold from 0.25x to 4x of the default
// and reports the geometric-mean normalized performance (the paper: 4.5%
// slowdown at 0.25x shrinking to ~0 at 4x).
func Figure10(s Scale) ([]Figure10Point, *stats.Table, error) {
	var pts []Figure10Point
	t := stats.NewTable("T_RH multiplier", "T_RH (scaled)", "Geomean normalized perf")
	base := s.Config().RowHammerThreshold
	mults := []float64{0.25, 0.5, 1, 2, 4}
	trhs := make([]int, len(mults))
	for i, mult := range mults {
		trhs[i] = int(float64(base) * mult)
		if trhs[i] < 6 {
			trhs[i] = 6
		}
	}
	// The whole threshold grid — every multiplier, mitigated and
	// baseline — is one sweep.
	g, err := s.sweep(s.spec(service.MitRRS, 0), service.SweepAxes{
		Mitigations:         []string{service.MitNone, service.MitRRS},
		RowHammerThresholds: trhs,
		Workloads:           workloadNames(s.workloads()),
	})
	if err != nil {
		return nil, nil, err
	}
	for i, mult := range mults {
		var norms []float64
		for _, w := range s.workloads() {
			spec := s.spec(service.MitRRS, 0, w)
			spec.RowHammerThreshold = trhs[i]
			norm, _, _, err := g.normalized(spec)
			if err != nil {
				return nil, nil, err
			}
			norms = append(norms, norm)
		}
		geo := stats.GeoMean(norms)
		pts = append(pts, Figure10Point{Multiplier: mult, TRH: trhs[i], GeoMean: geo})
		t.AddRow(fmt.Sprintf("%.2fx", mult), trhs[i], geo)
	}
	return pts, t, nil
}

// Figure11Series is one defense's sorted normalized-performance curve.
type Figure11Series struct {
	Label string
	// Sorted ascending normalized performance (the S-curve).
	Norms []float64
}

// Figure11 builds the S-curve comparison of RRS against BlockHammer with
// blacklist thresholds of 512 and 1K (scaled with the epoch).
func Figure11(s Scale) ([]Figure11Series, *stats.Table, error) {
	defenses := []struct {
		label     string
		mit       string
		blacklist uint32
	}{
		{"RRS", service.MitRRS, 0},
		{"BH-512", service.MitBlockHammer, 512},
		{"BH-1K", service.MitBlockHammer, 1024},
	}
	// One sweep covers all three defenses plus the shared baseline: the
	// blacklist axis only matters for the BlockHammer children (RRS and
	// the baseline normalize it away and collapse), so the product
	// {none,rrs,blockhammer} × {512,1024} expands to exactly the distinct
	// jobs the figure needs.
	g, err := s.sweep(s.spec(service.MitRRS, 0), service.SweepAxes{
		Mitigations: []string{service.MitNone, service.MitRRS, service.MitBlockHammer},
		Blacklists:  []uint32{512, 1024},
		Workloads:   workloadNames(s.workloads()),
	})
	if err != nil {
		return nil, nil, err
	}
	var series []Figure11Series
	for _, d := range defenses {
		var norms []float64
		for _, w := range s.workloads() {
			norm, _, _, err := g.normalized(s.spec(d.mit, d.blacklist, w))
			if err != nil {
				return nil, nil, err
			}
			norms = append(norms, norm)
		}
		sort.Float64s(norms)
		series = append(series, Figure11Series{Label: d.label, Norms: norms})
	}

	t := stats.NewTable("Rank", "RRS", "BH-512", "BH-1K")
	for i := range series[0].Norms {
		t.AddRow(i+1, series[0].Norms[i], series[1].Norms[i], series[2].Norms[i])
	}
	t.AddRow("GEOMEAN", stats.GeoMean(series[0].Norms), stats.GeoMean(series[1].Norms),
		stats.GeoMean(series[2].Norms))
	return series, t, nil
}

// DoSRow is one defense's attacker-throughput measurement.
type DoSRow struct {
	Defense    string
	AccessRate float64
	Slowdown   float64 // relative to no defense
}

// DoS reproduces the Section 8.1 denial-of-service analysis: the factor by
// which each defense throttles a hammering attacker (BlockHammer ~200x at
// full scale; RRS ~2x).
func DoS(epochs int) ([]DoSRow, *stats.Table) {
	defenses := []struct {
		label string
		mit   mitigationFactory
	}{
		{"None", noFactory},
		{"RRS", attackRRSFactory},
		{"BlockHammer", attackBlockHammerFactory},
	}
	var rows []DoSRow
	var base float64
	t := stats.NewTable("Defense", "Attacker access rate", "Attacker slowdown")
	for _, d := range defenses {
		res := runAttack(d.mit, attack.NewDoubleSided(100), epochs)
		slow := 1.0
		if d.label == "None" {
			base = res.AccessRate
		} else if res.AccessRate > 0 {
			slow = base / res.AccessRate
		}
		rows = append(rows, DoSRow{Defense: d.label, AccessRate: res.AccessRate, Slowdown: slow})
		t.AddRow(d.label, fmt.Sprintf("%.5f/cycle", res.AccessRate), fmt.Sprintf("%.1fx", slow))
	}
	return rows, t
}

// Ablation compares the CAM-reference tracker against the scalable
// CAT-backed tracker inside RRS (same workload, same swaps expected).
type AblationRow struct {
	Tracker       string
	Normalized    float64
	SwapsPerEpoch float64
}

// TrackerAblation runs the DESIGN.md tracker ablation on one workload.
func TrackerAblation(s Scale, workload string) ([]AblationRow, *stats.Table, error) {
	w, ok := trace.ByName(workload)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown workload %q", workload)
	}
	variants := []struct {
		label string
		mit   string
	}{{"CAT (scalable)", service.MitRRS}, {"CAM (reference)", service.MitRRSCAM}}

	g, err := s.sweep(s.spec(service.MitRRS, 0, w), service.SweepAxes{
		Mitigations: []string{service.MitNone, service.MitRRS, service.MitRRSCAM},
	})
	if err != nil {
		return nil, nil, err
	}
	var rows []AblationRow
	t := stats.NewTable("Tracker", "Normalized perf", "Swaps/epoch")
	for _, v := range variants {
		norm, _, mitRes, err := g.normalized(s.spec(v.mit, 0, w))
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, AblationRow{Tracker: v.label, Normalized: norm,
			SwapsPerEpoch: mitRes.SwapsPerEpoch})
		t.AddRow(v.label, norm, mitRes.SwapsPerEpoch)
	}
	return rows, t, nil
}
