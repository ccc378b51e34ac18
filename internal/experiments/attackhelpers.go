package experiments

import (
	"repro/internal/attack"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
)

// mitigationFactory builds a defense over a fresh DRAM system.
type mitigationFactory = func(*dram.System) memctrl.Mitigation

// attackScaleConfig is the scaled system the attack experiments run on:
// 2400 activations per epoch with T_RH = 240, preserving the full-scale
// proportion between swap-transfer disturbance and the flip budget
// (ACT_max scales with T_RH squared; see the attack package tests).
func attackScaleConfig() config.Config {
	cfg := config.Default()
	cfg.RowsPerBank = 4 << 10
	cfg.EpochCycles = int64(cfg.TRC) * 2400
	cfg.RowHammerThreshold = 240
	return cfg
}

// idealFactory builds the idealized victim-focused mitigation.
func idealFactory(sys *dram.System) memctrl.Mitigation {
	return mitigation.NewIdeal(sys,
		mitigation.DefaultGrapheneThreshold(sys.Config().RowHammerThreshold))
}

// grapheneFactory builds the tracker+victim-refresh mitigation.
func grapheneFactory(sys *dram.System) memctrl.Mitigation {
	return mitigation.NewGraphene(sys,
		mitigation.DefaultGrapheneThreshold(sys.Config().RowHammerThreshold), 1, 7)
}

// attackRRSFactory builds RRS for the attack experiments.
func attackRRSFactory(sys *dram.System) memctrl.Mitigation {
	return mustRRS(sys, core.DefaultParams(sys.Config()))
}

// attackRRSCAMFactory builds RRS over the reference CAM tracker, the
// shootout's rrs-cam defense.
func attackRRSCAMFactory(sys *dram.System) memctrl.Mitigation {
	p := core.DefaultParams(sys.Config())
	p.UseCAMTracker = true
	return mustRRS(sys, p)
}

func mustRRS(sys *dram.System, p core.Params) *core.RRS {
	r, err := core.New(sys, p)
	if err != nil {
		panic(err)
	}
	return r
}

// attackBlockHammerFactory builds BlockHammer scaled to the attack config.
func attackBlockHammerFactory(sys *dram.System) memctrl.Mitigation {
	p := mitigation.DefaultBlockHammerParams()
	p.BlacklistThreshold = 60
	return mitigation.NewBlockHammer(sys, p)
}

// noFactory is the unprotected baseline.
func noFactory(*dram.System) memctrl.Mitigation { return nil }

// runAttack is the shared fixture for attack-backed experiments.
func runAttack(mit mitigationFactory, p attack.Pattern, epochs int) attack.Result {
	cfg := attackScaleConfig()
	ctl, fm := attack.NewSystem(cfg, 0, attack.Alpha2For(cfg), mit)
	return attack.Run(ctl, fm, p, attack.Options{Epochs: epochs})
}
