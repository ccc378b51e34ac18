// Package experiments regenerates every table and figure of the RRS
// paper's evaluation. Each experiment returns a formatted text table whose
// rows match the paper's, plus structured results for tests and the
// benchmark harness. EXPERIMENTS.md records paper-vs-measured values.
//
// Performance experiments run at a reduced scale (Scale, default 16): the
// refresh epoch, Row Hammer threshold and swap-operation cost all shrink
// by the same factor, which preserves the quantities the results are made
// of — tracker capacity (ACT_max/T_RRS), per-epoch hot-row capacity, and
// the fraction of an epoch spent on swaps — while cutting simulation time
// by the same factor.
package experiments

import (
	"repro/internal/config"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scale holds the common knobs for the simulation-backed experiments.
type Scale struct {
	// Factor divides the epoch, T_RH and swap cost (16 => 4 ms epochs).
	Factor int
	// Epochs is the simulated duration per run, in (scaled) epochs.
	Epochs int
	// Seed drives the synthetic traces.
	Seed uint64
	// Workloads optionally restricts the workload set (nil = Table 3's
	// 28 detailed workloads).
	Workloads []trace.Workload
	// Sweeper executes one grid — a base job plus axes — and returns the
	// results of its children keyed by child spec content hash. Every
	// experiment built from job specs runs through it:
	// service.Client.RunSweep offloads the grid to a running rrs-serve,
	// and a shared service.Manager's RunSweep lets experiments reuse each
	// other's runs. nil runs each grid on a fresh in-process Manager.
	// Experiments that build mitigations no Spec can name (the
	// probabilistic, RowClone and attack-detection experiments) call sim
	// and attack directly, and the attack experiments run the table's
	// defenses on the attack substrate.
	Sweeper func(service.SweepSpec) (map[string]sim.Result, error)
}

// DefaultScale returns the standard experiment scale: 1/16 epochs
// (4 ms), two epochs per run.
func DefaultScale() Scale {
	return Scale{Factor: 16, Epochs: 2, Seed: 0xEC0}
}

// Config returns the scaled system configuration.
func (s Scale) Config() config.Config {
	f := s.Factor
	if f < 1 {
		f = 1
	}
	return config.Default().Scaled(f)
}

// workloads returns the experiment's workload list.
func (s Scale) workloads() []trace.Workload {
	if len(s.Workloads) > 0 {
		return s.Workloads
	}
	return trace.Table3Workloads()
}

// spec builds the service job spec for one sweep point: the given
// workloads at this scale under a named mitigation. Its Options method
// gives the sim.Options of the same run, for experiments that swap in a
// defense no spec can name.
func (s Scale) spec(mit string, blacklist uint32, ws ...trace.Workload) service.Spec {
	epochs := s.Epochs
	if epochs < 1 {
		epochs = 1
	}
	return service.Spec{
		Workloads:  workloadNames(ws),
		Mitigation: mit,
		Blacklist:  blacklist,
		Scale:      max(1, s.Factor),
		Epochs:     epochs,
		Seed:       s.Seed,
	}
}
