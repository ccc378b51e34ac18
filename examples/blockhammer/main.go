// BlockHammer comparison example: the denial-of-service argument of
// Section 8.1, live.
//
// Both RRS and BlockHammer are aggressor-focused, but they differ in the
// mitigating action: RRS pays a ~2.9 us swap once per T_RRS activations,
// while BlockHammer delays *every* activation of a blacklisted row by tens
// of microseconds. Under attack the attacker is throttled hard either way;
// the difference is what happens to a benign workload whose hot rows get
// blacklisted.
//
//	go run ./examples/blockhammer
package main

import (
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

const scale = 16

// defense builds a named defense from the service table: at the
// experiment scale with Table 2's blacklist of 512 for the benign run,
// or at scale 1 with the attack-scale blacklist for the attack.
func defense(name string, scale int, blacklist uint32) func(*dram.System) memctrl.Mitigation {
	f, err := service.MitigationFactory(name, scale, blacklist)
	if err != nil {
		log.Fatal(err)
	}
	return f
}

func main() {
	// Part 1: benign performance on a hot workload (hmmer hammers ~1675
	// rows past 800 activations per epoch without being an attack).
	cfg := config.Default().Scaled(scale)
	w, _ := trace.ByName("hmmer")
	opts := sim.Options{
		Config:              cfg,
		Workloads:           []trace.Workload{w},
		InstructionsPerCore: 1 << 62,
		CycleLimit:          cfg.EpochCycles,
		Seed:                9,
	}
	base, err := sim.Run(opts)
	if err != nil {
		log.Fatal(err)
	}
	opts.Mitigation = defense(service.MitRRS, scale, 512)
	rrs, err := sim.Run(opts)
	if err != nil {
		log.Fatal(err)
	}
	opts.Mitigation = defense(service.MitBlockHammer, scale, 512)
	bh, err := sim.Run(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Benign workload (hmmer, hot rows galore):")
	fmt.Printf("  RRS normalized performance:         %.4f\n", rrs.IPC/base.IPC)
	fmt.Printf("  BlockHammer normalized performance: %.4f\n\n", bh.IPC/base.IPC)

	// Part 2: the attacker's view — how hard each defense throttles a
	// double-sided hammer.
	acfg := attack.ScaleConfig()
	rate := func(name string) float64 {
		mit := defense(name, 1, attack.BlockHammerBlacklist)
		ctl, fm := attack.NewSystem(acfg, 0, attack.Alpha2For(acfg), mit)
		return attack.Run(ctl, fm, attack.NewDoubleSided(100), attack.Options{Epochs: 2}).AccessRate
	}
	baseRate := rate(service.MitNone)
	rrsRate := rate(service.MitRRS)
	bhRate := rate(service.MitBlockHammer)
	fmt.Println("Attacker throughput (double-sided hammer):")
	fmt.Printf("  no defense:  %.5f accesses/cycle\n", baseRate)
	fmt.Printf("  RRS:         %.5f (%.1fx slower — bounded by swap time)\n",
		rrsRate, baseRate/rrsRate)
	fmt.Printf("  BlockHammer: %.5f (%.1fx slower — every ACT delayed)\n\n",
		bhRate, baseRate/bhRate)

	fmt.Println("BlockHammer throttles harder, but it cannot tell a hot benign row")
	fmt.Println("from an aggressor: the same delays hit hmmer above. RRS's swap cost")
	fmt.Println("is paid once per T_RRS activations, keeping benign overhead near zero.")
}
