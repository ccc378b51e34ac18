package experiments

import (
	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/service"
)

// mitigationFactory builds a defense over a fresh DRAM system.
type mitigationFactory = func(*dram.System) memctrl.Mitigation

// attackFactoryFor builds the named defense for the attack substrate
// (attack.ScaleConfig) from the service table at scale 1, with
// BlockHammer's attack-scale blacklist. The swap defenses keep their
// full swap cost there: the attack config already rescales T_RH, and
// the swap-cost/epoch proportion is not what the attack experiments
// measure.
func attackFactoryFor(name string) mitigationFactory {
	f, err := service.MitigationFactory(name, 1, attack.BlockHammerBlacklist)
	if err != nil {
		panic(err)
	}
	return f
}

// runAttack is the shared fixture for attack-backed experiments.
func runAttack(mit mitigationFactory, p attack.Pattern, epochs int) attack.Result {
	cfg := attack.ScaleConfig()
	ctl, fm := attack.NewSystem(cfg, 0, attack.Alpha2For(cfg), mit)
	return attack.Run(ctl, fm, p, attack.Options{Epochs: epochs})
}
