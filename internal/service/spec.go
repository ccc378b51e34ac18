// Package service turns the one-shot simulation engine into a serving
// subsystem: a job manager with a bounded FIFO queue and a worker pool, a
// content-addressed result store keyed by a canonical hash of the job
// spec, per-job lifecycle state with progress and cancellation, and an
// in-process metrics registry exported as JSON and Prometheus text. The
// cmd/rrs-serve binary exposes it over HTTP; cmd/rrs-experiments can
// route its figure sweeps through a running server with --server.
//
// The unit of work is a Spec: a declarative, JSON-serializable
// description of one sim.Run (configuration knobs, workloads, a named
// mitigation, seed and budget). Identical specs hash identically, so a
// re-submitted sweep point is answered from the cache without touching a
// worker — the property that makes threshold/tracker sweeps à la
// Scalable-Secure Row-Swap or DAPPER cheap to iterate on.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mitigation names accepted by Spec.Mitigation.
const (
	MitNone        = "none"
	MitRRS         = "rrs"
	MitRRSCAM      = "rrs-cam"
	MitPARA        = "para"
	MitGraphene    = "graphene"
	MitIdeal       = "ideal"
	MitBlockHammer = "blockhammer"
	MitSRS         = "srs"
	MitRubix       = "rubix"
	MitMINT        = "mint"
	MitPrIDE       = "pride"
	MitDAPPER      = "dapper"
)

// MitigationNames lists the accepted Spec.Mitigation values.
func MitigationNames() []string {
	return []string{MitNone, MitRRS, MitRRSCAM, MitPARA, MitGraphene,
		MitIdeal, MitBlockHammer, MitSRS, MitRubix, MitMINT, MitPrIDE,
		MitDAPPER}
}

// Spec declares one simulation job. The zero value of every field means
// "use the default"; Normalize makes those defaults explicit so that two
// specs describing the same run hash identically.
type Spec struct {
	// Workloads names catalog workloads (trace.ByName), one per core in
	// rate mode; a single entry is replicated across all cores, and a
	// multi-entry list runs as a mix.
	Workloads []string `json:"workloads"`
	// Mitigation is one of MitigationNames (default "none").
	Mitigation string `json:"mitigation,omitempty"`
	// Blacklist is BlockHammer's blacklist threshold at full scale
	// (default 512); it is divided by Scale like T_RH.
	Blacklist uint32 `json:"blacklist,omitempty"`
	// Scale is the epoch shrink factor (config.Config.Scaled; default 1,
	// the full 64 ms epoch).
	Scale int `json:"scale,omitempty"`
	// Epochs, when positive, time-bounds the run to that many (scaled)
	// epochs; the instruction budget becomes effectively unlimited
	// unless InstructionsPerCore is also set.
	Epochs int `json:"epochs,omitempty"`
	// InstructionsPerCore bounds each core's retired instructions
	// (default: unlimited for epoch-bounded runs, 1 M otherwise).
	InstructionsPerCore int64 `json:"instructions_per_core,omitempty"`
	// Seed drives the synthetic traces (0 is a valid seed).
	Seed uint64 `json:"seed,omitempty"`
	// Cores overrides the Table 2 core count (0 = default 8).
	Cores int `json:"cores,omitempty"`
	// RowHammerThreshold overrides the scaled T_RH (0 = keep Table 2's
	// 4800/Scale) — the Figure 10 sweep knob.
	RowHammerThreshold int `json:"row_hammer_threshold,omitempty"`
	// HotRowThreshold is the per-epoch activation count defining a "hot"
	// row for statistics (0 derives T_RH/6).
	HotRowThreshold int `json:"hot_row_threshold,omitempty"`
	// HotShare overrides the generator's hot-access share (0 = derive).
	HotShare float64 `json:"hot_share,omitempty"`
	// TimeoutSeconds bounds the job's wall-clock runtime (0 = the
	// server's default). It does not contribute to the content hash —
	// it cannot change a result, only whether one is produced.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Paranoid turns on the run's self-verification layer: structural
	// invariant sweeps and shadow-model differential oracles over the
	// RIT, trackers and DRAM state. Statistics are bit-identical either
	// way, but the result gains an invariant summary, so Paranoid
	// participates in the content hash (omitempty keeps pre-existing
	// spec hashes unchanged).
	Paranoid bool `json:"paranoid,omitempty"`
	// MaxSteps aborts the run with sim.ErrStepBudget after that many
	// memory accesses (0 = unlimited). A tripped budget changes the
	// outcome, so MaxSteps participates in the content hash.
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// Normalize returns a copy with every defaulted field made explicit, so
// that Hash is canonical: {"workloads":["bzip2"]} and the same spec with
// mitigation "none", scale 1 and seed 1 spelled out are the same job.
func (s Spec) Normalize() Spec {
	out := s
	if out.Mitigation == "" {
		out.Mitigation = MitNone
	}
	if out.Mitigation != MitBlockHammer {
		out.Blacklist = 0
	} else if out.Blacklist == 0 {
		out.Blacklist = 512
	}
	if out.Scale < 1 {
		out.Scale = 1
	}
	if out.Epochs < 0 {
		out.Epochs = 0
	}
	if out.InstructionsPerCore <= 0 {
		if out.Epochs > 0 {
			out.InstructionsPerCore = 1 << 62
		} else {
			out.InstructionsPerCore = 1_000_000
		}
	}
	out.Workloads = append([]string(nil), s.Workloads...)
	return out
}

// Validate reports why the spec cannot run: unknown workloads or
// mitigation, or a system configuration internal/config rejects.
func (s Spec) Validate() error {
	n := s.Normalize()
	if len(n.Workloads) == 0 {
		return fmt.Errorf("service: spec needs at least one workload")
	}
	for _, name := range n.Workloads {
		if _, ok := trace.ByName(name); !ok {
			return fmt.Errorf("service: unknown workload %q", name)
		}
	}
	if _, err := MitigationFactory(n.Mitigation, n.Scale, n.Blacklist); err != nil {
		return err
	}
	if n.Cores < 0 {
		return fmt.Errorf("service: Cores must be non-negative, got %d", n.Cores)
	}
	if n.MaxSteps < 0 {
		return fmt.Errorf("service: MaxSteps must be non-negative, got %d", n.MaxSteps)
	}
	cfg, err := n.configFor()
	if err != nil {
		return err
	}
	return cfg.Validate()
}

// Hash returns the canonical content address of the job: a hex SHA-256
// of the normalized spec's JSON, with the result-neutral TimeoutSeconds
// masked out. Two submissions with equal hashes produce byte-identical
// results (the engine is deterministic), which is what lets the result
// cache answer re-submissions without simulating.
func (s Spec) Hash() string {
	n := s.Normalize()
	n.TimeoutSeconds = 0
	b, err := json.Marshal(n)
	if err != nil {
		// Spec is a closed struct of scalars and strings; Marshal cannot
		// fail on it.
		panic(fmt.Sprintf("service: hashing spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// configFor builds the scaled, overridden system configuration.
func (s Spec) configFor() (config.Config, error) {
	n := s.Normalize()
	cfg := config.Default().Scaled(n.Scale)
	if n.Cores > 0 {
		cfg.Cores = n.Cores
	}
	if n.RowHammerThreshold > 0 {
		cfg.RowHammerThreshold = n.RowHammerThreshold
	}
	return cfg, cfg.Validate()
}

// Options compiles the spec into sim.Options. The caller owns Context
// and Progress; everything else — including the mitigation factory — is
// derived from the spec.
func (s Spec) Options() (sim.Options, error) {
	n := s.Normalize()
	if err := n.Validate(); err != nil {
		return sim.Options{}, err
	}
	cfg, err := n.configFor()
	if err != nil {
		return sim.Options{}, err
	}
	ws := make([]trace.Workload, len(n.Workloads))
	for i, name := range n.Workloads {
		ws[i], _ = trace.ByName(name)
	}
	factory, err := MitigationFactory(n.Mitigation, n.Scale, n.Blacklist)
	if err != nil {
		return sim.Options{}, err
	}
	opts := sim.Options{
		Config:              cfg,
		Workloads:           ws,
		Mitigation:          factory,
		InstructionsPerCore: n.InstructionsPerCore,
		Seed:                n.Seed,
		HotRowThreshold:     n.HotRowThreshold,
		HotShare:            n.HotShare,
		Paranoid:            n.Paranoid,
		MaxSteps:            n.MaxSteps,
	}
	if n.Epochs > 0 {
		opts.CycleLimit = int64(n.Epochs) * cfg.EpochCycles
	}
	return opts, nil
}

// MitigationFactory maps a symbolic mitigation name to a constructor
// over a fresh DRAM system. The same table serves rrs-sim's -mitigation
// flag and the job service, so a served job and a local CLI run with the
// same knobs build byte-identical defenses. The BlockHammer blacklist
// threshold is given at full scale and divided by the epoch scale, like
// T_RH.
func MitigationFactory(name string, scale int, blacklist uint32) (func(*dram.System) memctrl.Mitigation, error) {
	if scale < 1 {
		scale = 1
	}
	switch name {
	case "", MitNone:
		return nil, nil
	case MitRRS, MitRRSCAM:
		cam := name == MitRRSCAM
		return func(sys *dram.System) memctrl.Mitigation {
			p := core.ScaledParams(sys.Config())
			p.UseCAMTracker = cam
			r, err := core.New(sys, p)
			if err != nil {
				panic(err)
			}
			return r
		}, nil
	case MitPARA:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewPARA(sys,
				mitigation.DefaultPARAProbability(sys.Config().RowHammerThreshold), 7)
		}, nil
	case MitGraphene:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewGraphene(sys,
				mitigation.DefaultGrapheneThreshold(sys.Config().RowHammerThreshold), 1, 7)
		}, nil
	case MitIdeal:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewIdeal(sys,
				mitigation.DefaultGrapheneThreshold(sys.Config().RowHammerThreshold))
		}, nil
	case MitBlockHammer:
		if blacklist == 0 {
			blacklist = 512
		}
		return func(sys *dram.System) memctrl.Mitigation {
			p := mitigation.DefaultBlockHammerParams()
			p.BlacklistThreshold = max(1, blacklist/uint32(scale))
			return mitigation.NewBlockHammer(sys, p)
		}, nil
	case MitSRS:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewSRS(sys, mitigation.ScaledSRSParams(sys.Config()))
		}, nil
	case MitRubix:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewRubix(sys,
				mitigation.DefaultPARAProbability(sys.Config().RowHammerThreshold), 11)
		}, nil
	case MitMINT:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewMINT(sys, 13)
		}, nil
	case MitPrIDE:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewPrIDE(sys,
				mitigation.DefaultPrIDEProbability(sys.Config()), 17)
		}, nil
	case MitDAPPER:
		return func(sys *dram.System) memctrl.Mitigation {
			return mitigation.NewDAPPER(sys,
				mitigation.DefaultPrIDEProbability(sys.Config()), 19)
		}, nil
	default:
		return nil, fmt.Errorf("service: unknown mitigation %q (want one of %v)",
			name, MitigationNames())
	}
}
