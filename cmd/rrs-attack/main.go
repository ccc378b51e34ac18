// Command rrs-attack launches Row Hammer attack patterns against a chosen
// defense and reports whether bit flips occurred.
//
// Usage:
//
//	rrs-attack -pattern halfdouble -defense graphene
//	rrs-attack -pattern chase -defense rrs -epochs 10
//	rrs-attack -pattern doublesided -defense none
//
// Patterns: singlesided, doublesided, manysided, halfdouble, chase.
// Defenses: every name the job service accepts (none, rrs, rrs-cam,
// para, graphene, ideal, blockhammer, srs, rubix, mint, pride, dapper),
// built from the same table.
//
// The system runs at the attack scale (attack.ScaleConfig: T_RH = 240,
// 2400 activations per epoch) where the disturbance model's security
// margins are proportional to the paper's full-scale parameters.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/attack"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/service"
)

func main() {
	var (
		pattern = flag.String("pattern", "doublesided", "attack pattern")
		defense = flag.String("defense", "rrs", "defense under attack")
		epochs  = flag.Int("epochs", 3, "attack duration in refresh epochs")
		victim  = flag.Int("victim", 100, "victim row for targeted patterns")
		seed    = flag.Uint64("seed", 7, "random seed for the chase pattern")
	)
	flag.Parse()

	if err := run(os.Stdout, *pattern, *defense, *epochs, *victim, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "rrs-attack: %v\n", err)
		os.Exit(1)
	}
}

// run attacks the named defense with the named pattern and writes the
// report to w.
func run(w io.Writer, pattern, defense string, epochs, victim int, seed uint64) error {
	cfg := attack.ScaleConfig()
	p, err := makePattern(pattern, cfg, victim, seed)
	if err != nil {
		return err
	}
	mit, err := service.MitigationFactory(defense, 1, attack.BlockHammerBlacklist)
	if err != nil {
		return err
	}

	ctl, fm := attack.NewSystem(cfg, 0, attack.Alpha2For(cfg), mit)
	res := attack.Run(ctl, fm, p, attack.Options{Epochs: epochs})

	fmt.Fprintf(w, "pattern:  %s (victim row %d)\n", res.Pattern, victim)
	fmt.Fprintf(w, "defense:  %s\n", defense)
	fmt.Fprintf(w, "duration: %d epochs, %d attacker accesses\n", epochs, res.Accesses)
	fmt.Fprintf(w, "attacker access rate: %.5f/cycle\n\n", res.AccessRate)
	if res.Defended() {
		fmt.Fprintln(w, "RESULT: defended — no bit flips")
	} else {
		fmt.Fprintf(w, "RESULT: DEFEATED — %d bit flip(s), first at cycle %d\n",
			res.Flips, res.FirstFlipTime)
		for i, f := range fm.Flips() {
			if i >= 10 {
				fmt.Fprintf(w, "  ... and %d more\n", len(fm.Flips())-10)
				break
			}
			fmt.Fprintf(w, "  %s\n", f)
		}
	}
	if r, ok := ctl.Mitigation().(*core.RRS); ok {
		st := r.Stats()
		fmt.Fprintf(w, "\nRRS activity: %d swaps (%d re-swaps), %d eviction un-swaps\n",
			st.Swaps, st.Reswaps, st.EvictionUnswaps)
	}
	return nil
}

func makePattern(name string, cfg config.Config, victim int, seed uint64) (attack.Pattern, error) {
	switch name {
	case "singlesided":
		return attack.NewSingleSided(victim, cfg.RowsPerBank), nil
	case "doublesided":
		return attack.NewDoubleSided(victim), nil
	case "manysided":
		return attack.NewManySided(victim, 8), nil
	case "halfdouble":
		return attack.NewHalfDouble(victim), nil
	case "chase":
		return attack.NewRandomChase(cfg.RowHammerThreshold/6, cfg.RowsPerBank, seed), nil
	default:
		return nil, fmt.Errorf("unknown pattern %q", name)
	}
}
