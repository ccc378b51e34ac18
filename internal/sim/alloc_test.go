package sim_test

import (
	"runtime"
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/service"
	"repro/internal/sim"
)

// TestServedJobAllocBytes runs the served mixed-traffic job (bzip2
// under RRS, scale 1024, one epoch). No bank logs a full activation log
// with no fold in between, so every bank ends the run without per-row
// counts: the epoch's hot-row statistic is read from the logs. Every
// bank's RIT and tracker give a CAT set its slots only when it first
// holds an entry. The run then allocates under 8 MiB, less than half of
// what per-row counts for every bank of a Table 2 system would take
// alone.
func TestServedJobAllocBytes(t *testing.T) {
	spec := service.Spec{Workloads: []string{"bzip2"}, Mitigation: service.MitRRS, Scale: 1024, Epochs: 1, Seed: 1}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	var sys *dram.System
	build := opts.Mitigation
	opts.Mitigation = func(s *dram.System) memctrl.Mitigation {
		sys = s
		return build(s)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sim.Run(opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 8<<20 {
		t.Errorf("run allocated %d bytes, want < 8 MiB", n)
	}
	sys.EachBank(func(id dram.BankID, b *dram.Bank) {
		if b.HasCounts() {
			t.Errorf("bank %v has per-row counts after the run", id)
		}
	})
}
