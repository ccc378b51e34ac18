package experiments

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ProbabilisticRow compares the tracked and state-less RRS variants on one
// workload (the paper's footnote 1 ablation).
type ProbabilisticRow struct {
	Variant       string
	SwapsPerEpoch float64
	Normalized    float64
}

// TrackerVsProbabilistic quantifies footnote 1: the state-less variant's
// swap count scales with total activations rather than with the number of
// hot rows, making it unsuitable at low Row Hammer thresholds.
func TrackerVsProbabilistic(s Scale, workload string) ([]ProbabilisticRow, *stats.Table, error) {
	w, ok := trace.ByName(workload)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown workload %q", workload)
	}
	variants := []struct {
		label string
		prob  float64
	}{
		{"Misra-Gries tracker", 0},
		// Matching PARA-grade protection needs p ~ 12/T_RH per ACT.
		{"state-less (p=12/T_RH)", 12.0 / float64(s.Config().RowHammerThreshold)},
	}
	var rows []ProbabilisticRow
	t := stats.NewTable("Variant", "Swaps/epoch", "Normalized perf")
	for _, v := range variants {
		prob := v.prob
		factory := func(sys *dram.System) memctrl.Mitigation {
			p := core.ScaledParams(sys.Config())
			p.SwapProbability = prob
			r, err := core.New(sys, p)
			if err != nil {
				panic(err)
			}
			return r
		}
		norm, _, mitRes, err := sim.NormalizedPerformance(s.options(w), factory)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, ProbabilisticRow{Variant: v.label,
			SwapsPerEpoch: mitRes.SwapsPerEpoch, Normalized: norm})
		t.AddRow(v.label, mitRes.SwapsPerEpoch, norm)
	}
	return rows, t, nil
}

// DetectionResult reports the footnote-2 attack-detection experiment.
type DetectionResult struct {
	AttackDetections int64
	AttackFlips      int
	BenignDetections int64
}

// AttackDetection runs the footnote-2 detector. The detector's guarantee
// is not early pattern classification — it is catching the rare dangerous
// event (a physical location accumulating repeated swaps, the
// balls-in-a-bucket step an attack must climb) long before the k = 6 swaps
// a bit flip needs, at the cost of occasional benign false positives whose
// response (one preemptive refresh, ~2.8 ms) is cheap.
//
// The attack runs on a deliberately small bank so the birthday event is
// observable within a few epochs; the benign comparison runs the same
// detector on the standard attack-scale bank where hot rows swap about
// once per epoch each.
func AttackDetection(epochs int) (DetectionResult, *stats.Table) {
	detectingRRS := func(sys *dram.System) memctrl.Mitigation {
		p := core.DefaultParams(sys.Config())
		p.DetectionThreshold = 2
		r, err := core.New(sys, p)
		if err != nil {
			panic(err)
		}
		return r
	}

	// Attack run: shrunken randomization space (256 rows).
	acfg := attackScaleConfig()
	acfg.RowsPerBank = 256
	ctl, fm := attack.NewSystem(acfg, 0, attack.Alpha2For(acfg), detectingRRS)
	chase := attack.NewRandomChase(acfg.RowHammerThreshold/6, acfg.RowsPerBank, 0xDE7)
	res := attack.Run(ctl, fm, chase, attack.Options{Epochs: epochs})
	attackDet := ctl.Mitigation().(*core.RRS).Stats().AttacksDetected

	// Benign run: a few hot rows on the standard bank, each swapping
	// roughly once per epoch.
	bcfg := attackScaleConfig()
	ctl2, fm2 := attack.NewSystem(bcfg, 0, attack.Alpha2For(bcfg), detectingRRS)
	benign := attack.NewManySided(10, 4)
	attack.Run(ctl2, fm2, benign, attack.Options{Epochs: epochs})
	benignDet := ctl2.Mitigation().(*core.RRS).Stats().AttacksDetected

	out := DetectionResult{
		AttackDetections: attackDet,
		AttackFlips:      res.Flips,
		BenignDetections: benignDet,
	}
	t := stats.NewTable("Scenario", "Detections", "Bit flips")
	t.AddRow("random-chase attack (256-row bank)", attackDet, res.Flips)
	t.AddRow("benign hot rows (4096-row bank)", benignDet, fm2.FlipCount())
	return out, t
}

// MixedWorkloads measures RRS normalized performance on the paper's six
// mixed (multi-programmed) workloads: each core runs a different benchmark
// from the Table 3 catalog.
func MixedWorkloads(s Scale, count int) ([]Figure6Row, *stats.Table, error) {
	mixes := trace.Mixes(s.Config().Cores)
	if count > 0 && count < len(mixes) {
		mixes = mixes[:count]
	}
	var rows []Figure6Row
	t := stats.NewTable("Mix", "RRS normalized perf")
	var norms []float64
	for _, m := range mixes {
		spec := s.spec(service.MitRRS, 0, m.Workloads...)
		g, err := s.sweep(spec, service.SweepAxes{
			Mitigations: []string{service.MitNone, service.MitRRS},
		})
		if err != nil {
			return nil, nil, err
		}
		norm, _, _, err := g.normalized(spec)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Figure6Row{Workload: m.Name, Normalized: norm})
		t.AddRow(m.Name, norm)
		norms = append(norms, norm)
	}
	t.AddRow("GEOMEAN", stats.GeoMean(norms))
	return rows, t, nil
}

// RowCloneRow is one swap-cost variant's attacker impact.
type RowCloneRow struct {
	Variant          string
	AttackerSlowdown float64
	Defended         bool
}

// RowCloneAblation quantifies Section 8.1's remark that in-DRAM bulk copy
// (RowClone) would shrink RRS's only overhead under attack — the channel
// time of swap transfers. It measures the attacker's slowdown with the
// swap-buffer data path versus a 10x faster RowClone-style path.
func RowCloneAblation(epochs int) ([]RowCloneRow, *stats.Table) {
	cfg := attackScaleConfig()
	alpha2 := attack.Alpha2For(cfg)

	base := func(sys *dram.System) memctrl.Mitigation { return nil }
	bres := runWith(cfg, alpha2, base, epochs)

	variants := []struct {
		label string
		div   int64
	}{
		{"swap buffers (paper)", 1},
		{"RowClone-accelerated (10x)", 10},
	}
	var rows []RowCloneRow
	t := stats.NewTable("Swap data path", "Attacker slowdown", "Defended")
	for _, v := range variants {
		div := v.div
		factory := func(sys *dram.System) memctrl.Mitigation {
			p := core.DefaultParams(sys.Config())
			pp, err := p.Finalize(sys.Config())
			if err != nil {
				panic(err)
			}
			pp.SwapOpCycles = max(1, pp.SwapOpCycles/div)
			r, err := core.New(sys, pp)
			if err != nil {
				panic(err)
			}
			return r
		}
		res := runWith(cfg, alpha2, factory, epochs)
		slow := 1.0
		if res.AccessRate > 0 {
			slow = bres.AccessRate / res.AccessRate
		}
		rows = append(rows, RowCloneRow{Variant: v.label,
			AttackerSlowdown: slow, Defended: res.Defended()})
		t.AddRow(v.label, fmt.Sprintf("%.2fx", slow), res.Defended())
	}
	return rows, t
}

// runWith runs the standard double-sided attack against a mitigation.
func runWith(cfg config.Config, alpha2 float64, mit mitigationFactory, epochs int) attack.Result {
	ctl, fm := attack.NewSystem(cfg, 0, alpha2, mit)
	return attack.Run(ctl, fm, attack.NewDoubleSided(100), attack.Options{Epochs: epochs})
}
