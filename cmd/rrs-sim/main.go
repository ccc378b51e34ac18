// Command rrs-sim runs one workload on the simulated memory system with a
// chosen Row Hammer mitigation and prints performance and mitigation
// statistics.
//
// Usage:
//
//	rrs-sim -workload bzip2 -mitigation rrs -scale 16 -epochs 2
//	rrs-sim -workload hmmer -mitigation blockhammer -blacklist 512
//	rrs-sim -list
//
// The flags compile to the same service.Spec that cmd/rrs-serve accepts
// over POST /v1/jobs, so a served job with identical knobs reproduces
// this command's numbers exactly. Ctrl-C interrupts a long run cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mitigation"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		workload  = flag.String("workload", "bzip2", "workload name from the catalog")
		mit       = flag.String("mitigation", "rrs", "none | rrs | rrs-cam | para | graphene | ideal | blockhammer | srs | rubix | mint | pride | dapper")
		scale     = flag.Int("scale", 16, "epoch shrink factor (1 = full 64 ms epochs)")
		epochs    = flag.Int("epochs", 2, "simulated epochs")
		seed      = flag.Uint64("seed", 1, "trace seed")
		blacklist = flag.Uint("blacklist", 512, "BlockHammer blacklist threshold (at full scale)")
		paranoid  = flag.Bool("paranoid", false, "run with the self-verification layer: invariant sweeps and shadow-model oracles (stats are bit-identical)")
		maxSteps  = flag.Int64("max-steps", 0, "abort after this many memory accesses (0 = unlimited)")
		list      = flag.Bool("list", false, "list catalog workloads and exit")

		eventsOut    = flag.String("events", "", "record the run's event timeline and write it as JSON Lines to this file")
		chromeOut    = flag.String("events-chrome", "", "record the run's event timeline and write it in Chrome trace-event format (open in Perfetto) to this file")
		eventsBuffer = flag.Int("events-buffer", 0, "event ring capacity; keeps the newest events (0 = default 65536)")
	)
	flag.Parse()

	if *list {
		for _, w := range trace.AllWorkloads() {
			fmt.Println(w)
		}
		return
	}

	w, ok := trace.ByName(*workload)
	if !ok {
		fatalf("unknown workload %q (use -list)", *workload)
	}

	spec := service.Spec{
		Workloads:  []string{*workload},
		Mitigation: *mit,
		Blacklist:  uint32(*blacklist),
		Scale:      *scale,
		Epochs:     *epochs,
		Seed:       *seed,
		Paranoid:   *paranoid,
		MaxSteps:   *maxSteps,
	}
	opts, err := spec.Options()
	if err != nil {
		fatalf("%v", err)
	}
	cfg := opts.Config

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Context = ctx

	recordEvents := *eventsOut != "" || *chromeOut != ""
	if recordEvents {
		opts.Events = &obs.Config{RingSize: *eventsBuffer}
	}

	res, err := sim.Run(opts)
	if err != nil {
		fatalf("%v", err)
	}

	if recordEvents {
		if err := writeTimeline(res.Timeline, *eventsOut, *chromeOut); err != nil {
			fatalf("%v", err)
		}
	}

	fmt.Printf("workload:   %s\n", w)
	fmt.Printf("config:     %s (scale 1/%d)\n", cfg, *scale)
	fmt.Printf("mitigation: %s\n\n", *mit)
	fmt.Printf("IPC (per core):        %.4f\n", res.IPC)
	fmt.Printf("instructions:          %d\n", res.Instructions)
	fmt.Printf("bus cycles:            %d (%d epochs)\n", res.Cycles, res.Epochs)
	fmt.Printf("memory accesses:       %d (MPKI %.2f)\n", res.Accesses, res.MPKI)
	fmt.Printf("row hits/misses/conf:  %d / %d / %d\n",
		res.MemStats.RowHits, res.MemStats.RowMisses, res.MemStats.RowConflicts)
	fmt.Printf("hot rows per epoch:    %.1f\n", res.HotRowsPerEpoch)
	fmt.Printf("DRAM avg power:        %.0f mW\n", res.Energy.AvgPowerMW)

	if r, ok := res.Mitigation.(*core.RRS); ok {
		st := r.Stats()
		fmt.Printf("\nRRS: swaps/epoch %.1f, reswaps %d, eviction un-swaps %d, "+
			"dest re-rolls %d, skipped %d, channel-block cycles %d\n",
			res.SwapsPerEpoch, st.Reswaps, st.EvictionUnswaps, st.DestRerolls,
			st.SkippedSwaps, st.BlockCycles)
	}
	if b, ok := res.Mitigation.(*mitigation.BlockHammer); ok {
		st := b.Stats()
		fmt.Printf("\nBlockHammer: blacklisted ACTs %d, delay cycles %d (tDelay %d)\n",
			st.BlacklistedActs, st.DelayCycles, b.TDelay())
	}
	if s, ok := res.Mitigation.(*mitigation.SRS); ok {
		st := s.Stats()
		fmt.Printf("\nSRS: swaps %d, refreshes %d, dest re-rolls %d, skipped %d, "+
			"channel-block cycles %d\n",
			st.Swaps, st.Refreshes, st.DestRerolls, st.SkippedSwaps, st.BlockCycles)
	}
	if r, ok := res.Mitigation.(*mitigation.Rubix); ok {
		st := r.Stats()
		fmt.Printf("\nRubix: refresh triggers %d, refresh ACTs %d\n",
			st.Mitigations, st.Refreshes)
	}
	if m, ok := res.Mitigation.(*mitigation.MINT); ok {
		st := m.Stats()
		fmt.Printf("\nMINT: window refreshes %d, refresh ACTs %d (W=%d)\n",
			st.Mitigations, st.Refreshes, m.WindowActs())
	}
	if q, ok := res.Mitigation.(*mitigation.PrIDE); ok {
		st := q.Stats()
		name := "PrIDE"
		if q.Replaces() {
			name = "DAPPER"
		}
		fmt.Printf("\n%s: enqueued %d, serviced %d, dropped %d, replaced %d, refresh ACTs %d\n",
			name, st.Enqueued, st.Serviced, st.Dropped, st.Replaced, st.Refreshes)
	}
	if inv := res.Invariants; inv != nil {
		fmt.Printf("\nself-verification: %d invariant checks across %d catalog entries, %d violation(s)\n",
			inv.Checks, len(inv.PerCheck), inv.Violations)
		if inv.FirstViolation != "" {
			fmt.Printf("first violation: %s\n", inv.FirstViolation)
		}
	}
	if tl := res.Timeline; tl != nil {
		fmt.Printf("\nevents: %d recorded (%d kept, %d dropped), %d epoch samples\n",
			tl.TotalEvents, int64(len(tl.Events)), tl.DroppedEvents, len(tl.Samples))
	}
}

// writeTimeline dumps the recorded timeline to the requested files.
func writeTimeline(tl *obs.Timeline, jsonlPath, chromePath string) error {
	if tl == nil {
		return fmt.Errorf("run produced no timeline")
	}
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			return err
		}
		if err := obs.WriteJSONL(f, tl); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s\n", len(tl.Events), jsonlPath)
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		// Timestamps are bus cycles; Chrome traces want microseconds.
		if err := obs.WriteChromeTrace(f, tl, config.BusGHz*1000); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s (open at https://ui.perfetto.dev)\n", chromePath)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rrs-sim: "+format+"\n", args...)
	os.Exit(1)
}
