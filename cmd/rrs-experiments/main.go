// Command rrs-experiments regenerates the tables and figures of the RRS
// paper's evaluation. Each experiment prints a text table whose rows match
// the paper's.
//
// Usage:
//
//	rrs-experiments -exp all
//	rrs-experiments -exp fig6 -scale 16 -epochs 2 -workloads hmmer,bzip2
//	rrs-experiments -exp table4
//	rrs-experiments -exp fig10 -server http://localhost:8080
//
// Every simulation-backed experiment describes its grid as one sweep
// and runs it on a job service. By default that is an in-process
// manager shared by every experiment of the invocation, so the baseline
// runs shared between figures are simulated once. With -server, each
// grid is posted instead (POST /v1/sweeps) to a running rrs-serve: the
// server expands the axes into child jobs deduplicated by content hash,
// and repeated sweeps are answered from its result store. Both ways
// print the same tables.
//
// Experiments: table1 table2 table3 table4 table5 table6 table7 fig5 fig6
// fig7 fig9 fig10 fig11 dos ablation probabilistic detection mixes rowclone
// shootout all.
//
// The shootout compares the whole mitigation zoo (RRS and the paper's
// baselines plus the successor defenses SRS, Rubix, MINT, PrIDE and
// DAPPER) under the same workloads and attack patterns:
//
//	rrs-experiments -shootout -scale 64 -epochs 1 -workloads hmmer -paranoid
//	rrs-experiments -exp shootout -mitigations rrs,srs,mint
//
// Simulation-backed experiments run at a reduced scale (-scale divides the
// 64 ms epoch; the Row Hammer threshold and swap cost scale with it, which
// preserves relative results — see DESIGN.md section 6).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// csvDir, when nonempty, receives one CSV file per experiment.
var csvDir string

// shootoutMits is the -mitigations subset (nil = full zoo);
// shootoutParanoid mirrors -paranoid for the shootout runner.
var (
	shootoutMits     []string
	shootoutParanoid bool
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run (table1..table7, fig5..fig11, dos, ablation, all)")
		csv       = flag.String("csv", "", "also write each experiment's table as CSV into this directory")
		scale     = flag.Int("scale", 16, "epoch shrink factor for simulation-backed experiments")
		epochs    = flag.Int("epochs", 2, "simulated epochs per run")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: the 28 Table 3 workloads)")
		seed      = flag.Uint64("seed", 0xEC0, "trace seed")
		server    = flag.String("server", "", "base URL of a running rrs-serve (e.g. http://localhost:8080); each experiment's grid is posted as one sweep and runs on the server, sharing its result store, instead of in-process")

		shootout    = flag.Bool("shootout", false, "shorthand for -exp shootout: the cross-defense comparison")
		mitigations = flag.String("mitigations", "", "comma-separated mitigation subset for the shootout (default: the full zoo)")
		paranoid    = flag.Bool("paranoid", false, "run shootout legs under the invariant engine; any violation fails the experiment")
	)
	flag.Parse()
	if *shootout {
		*exp = "shootout"
	}
	shootoutMits = nil
	if *mitigations != "" {
		for _, name := range strings.Split(*mitigations, ",") {
			shootoutMits = append(shootoutMits, strings.TrimSpace(name))
		}
	}
	shootoutParanoid = *paranoid
	csvDir = *csv
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}

	ctx := context.Background()
	s := experiments.Scale{Factor: *scale, Epochs: *epochs, Seed: *seed}
	if *server != "" {
		client := service.NewClient(*server)
		// Leaving PollInterval unset would honor the server's 1 s
		// Retry-After hint on every pending poll, which floors each
		// experiment at a second or more; a sweep's results are one small
		// GET, so poll at the cadence the fleet uses between nodes.
		client.PollInterval = 20 * time.Millisecond
		if err := client.Health(ctx); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "rrs-experiments: offloading sweeps to %s\n", *server)
		// Each grid goes up as one POST /v1/sweeps; the server expands,
		// dedups and spreads the children (fleet mode routes them by
		// content hash).
		s.Sweeper = func(ss service.SweepSpec) (map[string]sim.Result, error) {
			return client.RunSweep(ctx, ss)
		}
	} else {
		// One manager for the whole invocation: its result store answers
		// any point an earlier experiment already ran.
		m := service.NewManager(service.Options{})
		defer m.Shutdown(ctx)
		s.Sweeper = func(ss service.SweepSpec) (map[string]sim.Result, error) {
			return m.RunSweep(ctx, ss)
		}
	}
	if *workloads != "" {
		for _, name := range strings.Split(*workloads, ",") {
			w, ok := trace.ByName(strings.TrimSpace(name))
			if !ok {
				fatalf("unknown workload %q", name)
			}
			s.Workloads = append(s.Workloads, w)
		}
	}

	runners := map[string]func(experiments.Scale) error{
		"table1": func(experiments.Scale) error {
			return show("Table 1: Row Hammer threshold over time", experiments.Table1(), nil)
		},
		"table2": func(experiments.Scale) error {
			return show("Table 2: Baseline system configuration", experiments.Table2(), nil)
		},
		"table3": runTable3,
		"table4": func(experiments.Scale) error {
			return show("Table 4: Attack iterations and time vs T", experiments.Table4(), nil)
		},
		"table5": func(experiments.Scale) error {
			return show("Table 5: Storage overhead per bank", experiments.Table5(), nil)
		},
		"table6":        runTable6,
		"table7":        runTable7,
		"fig5":          runFigure5,
		"fig6":          runFigure6,
		"fig7":          runFigure7,
		"fig9":          runFigure9,
		"fig10":         runFigure10,
		"fig11":         runFigure11,
		"dos":           runDoS,
		"ablation":      runAblation,
		"probabilistic": runProbabilistic,
		"detection":     runDetection,
		"mixes":         runMixes,
		"rowclone":      runRowClone,
		"shootout":      runShootout,
	}

	if *exp == "all" {
		order := []string{"table1", "table2", "table3", "fig5", "fig6", "table4",
			"fig7", "fig9", "table5", "table6", "fig10", "fig11", "table7", "dos",
			"ablation", "probabilistic", "detection", "mixes", "rowclone"}
		for _, name := range order {
			sc := s
			if len(sc.Workloads) == 0 && (name == "fig10" || name == "fig11" || name == "table6") {
				// The multi-configuration sweeps cost several runs per
				// workload; default them to a representative subset
				// spanning the hot-row and MPKI ranges.
				sc.Workloads = representativeWorkloads()
			}
			if err := runners[name](sc); err != nil {
				fatalf("%s: %v", name, err)
			}
		}
		return
	}
	runner, ok := runners[*exp]
	if !ok {
		fatalf("unknown experiment %q", *exp)
	}
	if err := runner(s); err != nil {
		fatalf("%s: %v", *exp, err)
	}
}

// representativeWorkloads spans Table 3's hot-row and MPKI ranges.
func representativeWorkloads() []trace.Workload {
	var out []trace.Workload
	for _, name := range []string{"hmmer", "bzip2", "gcc", "sphinx", "mummer",
		"stream", "omnetpp", "mcf"} {
		w, _ := trace.ByName(name)
		out = append(out, w)
	}
	return out
}

func show(title string, table *stats.Table, err error) error {
	if err != nil {
		return err
	}
	fmt.Printf("== %s ==\n%s\n", title, table.String())
	if csvDir != "" {
		slug := strings.ToLower(title)
		if i := strings.IndexAny(slug, ":("); i > 0 {
			slug = slug[:i]
		}
		slug = strings.TrimSpace(slug)
		slug = strings.ReplaceAll(slug, " ", "-")
		path := filepath.Join(csvDir, slug+".csv")
		if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return nil
}

func runTable3(s experiments.Scale) error {
	_, t, err := experiments.Table3(s)
	if err != nil {
		return err
	}
	return show("Table 3: Workload characteristics (measured at scale)", t, nil)
}

func runTable6(s experiments.Scale) error {
	_, t, err := experiments.Table6(s)
	if err != nil {
		return err
	}
	return show("Table 6: Extra power consumption of RRS", t, nil)
}

func runTable7(experiments.Scale) error {
	_, t := experiments.Table7()
	return show("Table 7: RRS vs victim-focused mitigation under attack", t, nil)
}

func runFigure5(s experiments.Scale) error {
	_, t, err := experiments.Figure5(s)
	if err != nil {
		return err
	}
	return show("Figure 5: Row-swaps per epoch", t, nil)
}

func runFigure6(s experiments.Scale) error {
	_, t, err := experiments.Figure6(s)
	if err != nil {
		return err
	}
	return show("Figure 6: Performance of RRS normalized to baseline", t, nil)
}

func runFigure7(experiments.Scale) error {
	_, t := experiments.Figure7(3)
	return show("Figure 7: Optimal attacker strategy vs RRS", t, nil)
}

func runFigure9(experiments.Scale) error {
	_, t := experiments.Figure9(experiments.DefaultFigure9Options())
	return show("Figure 9: CAT installs before a conflict", t, nil)
}

func runFigure10(s experiments.Scale) error {
	_, t, err := experiments.Figure10(s)
	if err != nil {
		return err
	}
	return show("Figure 10: RRS performance across RH thresholds", t, nil)
}

func runFigure11(s experiments.Scale) error {
	_, t, err := experiments.Figure11(s)
	if err != nil {
		return err
	}
	return show("Figure 11: S-curve, RRS vs BlockHammer", t, nil)
}

func runDoS(experiments.Scale) error {
	_, t := experiments.DoS(2)
	return show("Section 8.1: Denial-of-service comparison", t, nil)
}

func runAblation(s experiments.Scale) error {
	_, t, err := experiments.TrackerAblation(s, "hmmer")
	if err != nil {
		return err
	}
	return show("Ablation: CAM vs CAT tracker", t, nil)
}

func runRowClone(experiments.Scale) error {
	_, t := experiments.RowCloneAblation(2)
	return show("Extension (Section 8.1): RowClone-accelerated swaps under attack", t, nil)
}

// runShootout runs the cross-defense comparison. It is not part of -exp
// all: the full zoo costs a run per defense per workload plus three
// attack legs each, so it is invoked explicitly (use -workloads and
// -scale to bound it).
func runShootout(s experiments.Scale) error {
	if len(s.Workloads) == 0 {
		s.Workloads = representativeWorkloads()[:4]
	}
	_, t, err := experiments.Shootout(s, shootoutMits, shootoutParanoid)
	if err != nil {
		return err
	}
	return show("Shootout: mitigation zoo under common workloads and attacks", t, nil)
}

func runMixes(s experiments.Scale) error {
	_, t, err := experiments.MixedWorkloads(s, 0)
	if err != nil {
		return err
	}
	return show("Mixed workloads: RRS normalized performance", t, nil)
}

func runProbabilistic(s experiments.Scale) error {
	_, t, err := experiments.TrackerVsProbabilistic(s, "mcf")
	if err != nil {
		return err
	}
	return show("Extension (footnote 1): tracked vs state-less RRS on mcf", t, nil)
}

func runDetection(experiments.Scale) error {
	_, t := experiments.AttackDetection(6)
	return show("Extension (footnote 2): swap-based attack detection", t, nil)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rrs-experiments: "+format+"\n", args...)
	os.Exit(1)
}
