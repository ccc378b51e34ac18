package main

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

// TestCountingWrapperIsTransparent runs every defense with and without
// the counting wrapper: the simulated machine must not notice it, and the
// wrapper must offer exactly the optional interfaces of the defense it
// wraps.
func TestCountingWrapperIsTransparent(t *testing.T) {
	for _, name := range service.MitigationNames() {
		t.Run(name, func(t *testing.T) {
			opts, err := service.Spec{Workloads: []string{"hmmer"}, Mitigation: name,
				Scale: 256, Epochs: 1, Seed: defaultSeed}.Options()
			if err != nil {
				t.Fatal(err)
			}
			plain, err := sim.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			// Keep what the run builds: the defense (memctrl.None when the
			// factory is nil) and the wrapper around it.
			var inner, wrapper memctrl.Mitigation = memctrl.None{}, nil
			if build := opts.Mitigation; build != nil {
				opts.Mitigation = func(sys *dram.System) memctrl.Mitigation {
					inner = build(sys)
					return inner
				}
			}
			var n mitCounts
			counted := countingFactory(opts.Mitigation, &n)
			opts.Mitigation = func(sys *dram.System) memctrl.Mitigation {
				wrapper = counted(sys)
				return wrapper
			}
			wrapped, err := sim.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkInterfaces(t, inner, wrapper)
			if plain.IPC != wrapped.IPC || plain.Cycles != wrapped.Cycles ||
				plain.Instructions != wrapped.Instructions || plain.Accesses != wrapped.Accesses ||
				plain.MemStats != wrapped.MemStats {
				t.Errorf("wrapper changed the run:\n  plain   IPC %v cycles %d accesses %d %+v\n  wrapped IPC %v cycles %d accesses %d %+v",
					plain.IPC, plain.Cycles, plain.Accesses, plain.MemStats,
					wrapped.IPC, wrapped.Cycles, wrapped.Accesses, wrapped.MemStats)
			}
			if n.Remap != wrapped.Accesses {
				t.Errorf("counted %d Remap calls for %d accesses", n.Remap, wrapped.Accesses)
			}
			if acts := wrapped.MemStats.RowMisses + wrapped.MemStats.RowConflicts; n.OnActivate+n.BatchedActs != acts {
				t.Errorf("counted %d OnActivate + %d batched activations, the controller made %d",
					n.OnActivate, n.BatchedActs, acts)
			}
		})
	}
}

// checkInterfaces reports each optional interface that exactly one of a
// defense and its counting wrapper implements.
func checkInterfaces(t *testing.T, inner, wrapper memctrl.Mitigation) {
	t.Helper()
	type observable interface{ EnableObs(*obs.Recorder) }
	type paranoid interface {
		EnableParanoid(*invariant.Engine)
		Err() error
	}
	for _, c := range []struct {
		iface      string
		inner, got bool
	}{
		{"memctrl.Batcher", is[memctrl.Batcher](inner), is[memctrl.Batcher](wrapper)},
		{"EnableObs", is[observable](inner), is[observable](wrapper)},
		{"EnableParanoid+Err", is[paranoid](inner), is[paranoid](wrapper)},
	} {
		if c.inner != c.got {
			t.Errorf("defense implements %s = %v, wrapper = %v", c.iface, c.inner, c.got)
		}
	}
}

func is[I any](m memctrl.Mitigation) bool {
	_, ok := m.(I)
	return ok
}

// TestCountingWrapperParanoid runs the self-verifying mode through the
// wrapper, which must forward the engine to the defense's own checks.
func TestCountingWrapperParanoid(t *testing.T) {
	for _, name := range []string{service.MitRRS, service.MitSRS, service.MitPARA} {
		opts, err := service.Spec{Workloads: []string{"hmmer"}, Mitigation: name,
			Scale: 256, Epochs: 1, Seed: defaultSeed, Paranoid: true}.Options()
		if err != nil {
			t.Fatal(err)
		}
		opts.Mitigation = countingFactory(opts.Mitigation, &mitCounts{})
		res, err := sim.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Invariants == nil || res.Invariants.Checks == 0 {
			t.Errorf("%s: paranoid run reports no invariant checks: %+v", name, res.Invariants)
		}
	}
}
