package attack

import (
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/memctrl"
)

// Options configures an attack run.
type Options struct {
	// Bank is the bank under attack.
	Bank dram.BankID
	// NewPattern, when set, spreads the attack over every bank of the
	// system (the paper's all-bank attack of Section 5.3.2): each bank
	// runs its own instance of the pattern, and the swaps from all banks
	// of a channel share its bus, crushing the attacker's duty cycle.
	// The p argument of Run is ignored in this mode.
	NewPattern func() Pattern
	// Epochs is the attack duration in refresh epochs.
	Epochs int
	// MaxAccesses optionally bounds the number of accesses (0 = no bound).
	MaxAccesses int64
	// StopAtFirstFlip ends the run as soon as the fault model records a
	// flip (used when measuring time-to-first-flip).
	StopAtFirstFlip bool
}

// Result reports an attack run's outcome.
type Result struct {
	// Pattern is the attack pattern name.
	Pattern string
	// Flips is the number of bit-flip events the fault model recorded.
	Flips int
	// FirstFlipTime is the bus-cycle time of the first flip (-1 if none).
	FirstFlipTime int64
	// Accesses is the number of memory accesses the attacker issued.
	Accesses int64
	// EndTime is when the attack stopped (bus cycles).
	EndTime int64
	// AccessRate is accesses per bus cycle — the attacker's achieved
	// throughput, used for the denial-of-service comparison (BlockHammer
	// throttles this ~200x; RRS only ~2x).
	AccessRate float64
}

// Run drives the attack pattern against the memory controller for the
// requested number of epochs and reports what the fault model observed.
// The attacker issues dependent back-to-back reads (each access starts
// when the previous completes), the fastest a single attack thread can
// hammer.
func Run(ctl *memctrl.Controller, fm *FaultModel, p Pattern, opts Options) Result {
	cfg := ctl.System().Config()
	if opts.Epochs <= 0 {
		opts.Epochs = 1
	}
	deadline := int64(opts.Epochs) * cfg.EpochCycles
	startFlips := fm.FlipCount()

	banks := []dram.BankID{opts.Bank}
	patterns := []Pattern{p}
	if opts.NewPattern != nil {
		banks = banks[:0]
		patterns = patterns[:0]
		ctl.System().EachBank(func(id dram.BankID, _ *dram.Bank) {
			banks = append(banks, id)
			patterns = append(patterns, opts.NewPattern())
		})
	}

	res := Result{Pattern: patterns[0].Name(), FirstFlipTime: -1}
	now := int64(0)
	bi := 0
	for now < deadline {
		if opts.MaxAccesses > 0 && res.Accesses >= opts.MaxAccesses {
			break
		}
		row := patterns[bi].NextRow()
		line := ctl.System().Encode(dram.Address{BankID: banks[bi], Row: row})
		bi = (bi + 1) % len(banks)
		now = ctl.Access(line, false, now)
		res.Accesses++
		if fm.FlipCount() > startFlips && res.FirstFlipTime < 0 {
			res.FirstFlipTime = now
			if opts.StopAtFirstFlip {
				break
			}
		}
	}
	ctl.AdvanceTo(deadline)
	res.Flips = fm.FlipCount() - startFlips
	res.EndTime = now
	if now > 0 {
		res.AccessRate = float64(res.Accesses) / float64(now)
	}
	return res
}

// Defended reports whether the defense held (no flips).
func (r Result) Defended() bool { return r.Flips == 0 }

// ScaleConfig is the system the attack experiments run on: a 4K-row bank,
// 2400 activations per epoch and T_RH = 240. ACT_max scales with T_RH
// squared here, so swap-transfer disturbance keeps the share of the flip
// budget it has at the paper's full scale.
func ScaleConfig() config.Config {
	cfg := config.Default()
	cfg.RowsPerBank = 4 << 10
	cfg.EpochCycles = int64(cfg.TRC) * 2400
	cfg.RowHammerThreshold = 240
	return cfg
}

// BlockHammerBlacklist is BlockHammer's blacklist threshold on
// ScaleConfig's system, a quarter of its T_RH. Callers pass it to the
// defense table at scale 1, where it is used undivided.
const BlockHammerBlacklist = 60

// NewSystem builds a DRAM system, fault model and controller wired with a
// mitigation — the standard fixture for attack experiments. mitigation is
// a factory so it can wrap the newly built *dram.System; nil means no
// defense. trh/alpha2 follow NewFaultModel semantics.
func NewSystem(cfg config.Config, trh, alpha2 float64,
	mitigation func(*dram.System) memctrl.Mitigation) (*memctrl.Controller, *FaultModel) {
	sys := dram.MustNew(cfg)
	fm := NewFaultModel(sys, trh, alpha2)
	var mit memctrl.Mitigation = memctrl.None{}
	if mitigation != nil {
		if m := mitigation(sys); m != nil {
			mit = m
		}
	}
	return memctrl.New(sys, mit), fm
}
