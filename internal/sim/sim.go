// Package sim wires the full system together — trace-driven cores, memory
// controller, DRAM and a Row Hammer mitigation — and runs workloads to
// completion, producing the statistics the paper's performance figures are
// built from (IPC, row-swaps per epoch, rows with 800+ activations, DRAM
// energy).
//
// The synthetic traces are post-LLC streams (their MPKI is the LLC
// miss rate), so the cores talk straight to the memory controller; the
// cache package is still available for filtering raw traces offline.
package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/trace"
)

// ErrStepBudget reports a run stopped by Options.MaxSteps.
var ErrStepBudget = errors.New("sim: step budget exhausted")

// ErrDeadline reports a run stopped by Options.Deadline.
var ErrDeadline = errors.New("sim: wall-clock deadline exceeded")

// llcHitBusCycles is the LLC hit latency in memory-bus cycles (~19 ns).
const llcHitBusCycles = 15

// Options configures one simulation run.
type Options struct {
	// Config is the system configuration (config.Default for Table 2).
	Config config.Config
	// Workloads holds one workload per core; a single entry is
	// replicated across all cores (the paper's rate mode).
	Workloads []trace.Workload
	// Mitigation builds the Row Hammer defense over the fresh DRAM
	// system; nil runs the unprotected baseline.
	Mitigation func(*dram.System) memctrl.Mitigation
	// InstructionsPerCore is each core's budget (the paper runs 1 B; the
	// default here is 1 M for tractable experiment sweeps).
	InstructionsPerCore int64
	// Seed drives the synthetic traces.
	Seed uint64
	// HotRowThreshold is the per-epoch activation count defining a "hot"
	// row for statistics; 0 derives T_RH/6 (the paper's 800).
	HotRowThreshold int
	// HotShare overrides the generator's hot-access share (0 = default).
	HotShare float64
	// CycleLimit optionally stops every core once its clock passes this
	// bus cycle, bounding the run to a fixed number of epochs regardless
	// of the instruction budget.
	CycleLimit int64
	// Readers, when non-nil, feeds each core from the given trace reader
	// (exactly one per core, e.g. rrs-tracegen files via
	// trace.NewFileReader) instead of synthesizing from Workloads.
	// Workloads must still name the benchmark (for reporting); addresses
	// are used as-is, with no per-core offsetting. Run rejects a list
	// shorter than the core count: a shared Reader is stateful, and two
	// cores draining it would each see an arbitrary interleaved subset of
	// the trace.
	Readers []trace.Reader
	// Context, when non-nil, makes the run interruptible: the core loop
	// polls it every checkInterval accesses and Run returns a wrapped
	// ctx.Err() once it is cancelled (rrs-serve cancellation, Ctrl-C in
	// the CLIs, per-job timeouts).
	Context context.Context
	// Progress, when non-nil, is called every checkInterval accesses —
	// and once more on completion — with the work done so far and the
	// run's total, in bus cycles for cycle-bounded runs and in retired
	// instructions otherwise. It runs on the simulation goroutine and
	// must be cheap; done never exceeds total.
	Progress func(done, total int64)
	// Paranoid enables the runtime self-verification layer: shadow
	// models on every RIT and tracker, swap-conservation verification in
	// the DRAM model, and the structural check catalog run on a cadence.
	// The first invariant.Violation fails the run; a clean run reports
	// its check counters in Result.Invariants. Setting RRS_PARANOID=1 in
	// the environment turns it on for every run (the `make paranoid`
	// switch). Statistics are bit-identical either way — the checks only
	// observe.
	Paranoid bool
	// MaxSteps, when positive, bounds the run to this many memory
	// accesses; the run fails with ErrStepBudget the moment the budget
	// is consumed — exactly, not at the next checkInterval poll point.
	// A guard against runaway specs, independent of Paranoid.
	MaxSteps int64
	// Deadline, when positive, bounds the run's wall-clock time;
	// exceeding it fails the run with ErrDeadline.
	Deadline time.Duration
	// Events, when non-nil, enables the observability layer: an event
	// recorder is attached to the memory controller and (for RRS runs)
	// the mitigation, and Result.Timeline carries the recorded event
	// stream, component histograms and per-epoch samples. Statistics are
	// bit-identical either way — the recorder only observes. A negative
	// Events.RingSize keeps the histograms and samples but drops the
	// per-event stream (the job service's shape).
	Events *obs.Config
}

// envParanoid reports whether RRS_PARANOID=1 forces paranoid mode on.
var envParanoid = sync.OnceValue(func() bool {
	return os.Getenv("RRS_PARANOID") == "1"
})

// checkInterval is how many memory accesses pass between cancellation
// polls and progress callbacks (~tens of microseconds of wall time).
const checkInterval = 8192

// Result reports a finished run.
type Result struct {
	// IPC is the mean per-core instructions per CPU cycle.
	IPC float64
	// Instructions and Cycles (bus) aggregate the run.
	Instructions int64
	Cycles       int64
	// Accesses is the number of memory (post-LLC) accesses.
	Accesses int64
	// MPKI is measured LLC misses per kilo-instruction.
	MPKI float64
	// MemStats is the controller's statistics snapshot.
	MemStats memctrl.Stats
	// HotRowsPerEpoch averages, over completed epochs, the number of
	// rows system-wide whose activations reached HotRowThreshold.
	HotRowsPerEpoch float64
	// SwapsPerEpoch averages RRS swaps per completed epoch (0 for other
	// mitigations) — Figure 5's metric.
	SwapsPerEpoch float64
	// Epochs is the number of completed epochs.
	Epochs int64
	// Energy is the DRAM energy breakdown.
	Energy power.Breakdown
	// Mitigation exposes the defense for caller-specific queries. It is
	// excluded from JSON: the rrs-serve result payload carries only the
	// numeric fields, not the live hardware model.
	Mitigation memctrl.Mitigation `json:"-"`
	// Invariants is the paranoid mode's check accounting; nil when the
	// run was not paranoid, so non-paranoid results (and their JSON and
	// golden-test forms) are unchanged.
	Invariants *invariant.Summary `json:"invariants,omitempty"`
	// Timeline is the observability recording; nil unless Options.Events
	// was set, so results without it (and their JSON and golden-test
	// forms) are unchanged.
	Timeline *obs.Timeline `json:"timeline,omitempty"`
}

// catalogCadence is how many checkInterval poll points pass between full
// structural-catalog sweeps in paranoid mode (the shadows check
// continuously in between); the catalog also runs once at the end.
const catalogCadence = 64

// paranoidMitigation is implemented by mitigations that own their
// paranoid wiring: EnableParanoid registers the defense's structural
// checks (plus the shared DRAM catalog) on the engine, and Err exposes
// the cheap latched-violation poll. core.RRS and the whole mitigation
// zoo implement it.
type paranoidMitigation interface {
	EnableParanoid(*invariant.Engine)
	Err() error
}

// observableMitigation is implemented by mitigations that can emit
// events into an obs.Recorder.
type observableMitigation interface {
	EnableObs(*obs.Recorder)
}

// runGuards bundles the per-run safety rails polled every checkInterval
// accesses: step budget, wall-clock deadline, and the paranoid engine.
type runGuards struct {
	eng      *invariant.Engine
	mit      paranoidMitigation
	maxSteps int64
	deadline time.Time
	polls    int64
}

func (g *runGuards) poll(accesses int64) error {
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		return ErrDeadline
	}
	if g.eng == nil {
		return nil
	}
	// The shadows and swap checks latch violations asynchronously; fail
	// fast on the first. The full structural catalog is costlier (it
	// sweeps tables and memos), so it runs on a sparser cadence.
	if g.mit != nil {
		if err := g.mit.Err(); err != nil {
			return err
		}
	} else if err := g.eng.Err(); err != nil {
		return err
	}
	g.polls++
	if g.polls%catalogCadence == 0 {
		return g.eng.RunAll()
	}
	return nil
}

// Run executes the simulation to completion: one goroutine interleaves
// every core over the shared memory system.
func Run(opts Options) (Result, error) {
	cfg := opts.Config
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(opts.Workloads) == 0 {
		return Result{}, fmt.Errorf("sim: no workloads")
	}
	if opts.Readers != nil && len(opts.Readers) < cfg.Cores {
		return Result{}, fmt.Errorf("sim: %d readers for %d cores; Readers must supply one per core",
			len(opts.Readers), cfg.Cores)
	}
	if opts.InstructionsPerCore <= 0 {
		opts.InstructionsPerCore = 1_000_000
	}
	hotThreshold := opts.HotRowThreshold
	if hotThreshold == 0 {
		hotThreshold = cfg.RowHammerThreshold / 6
	}

	sys, err := dram.New(cfg)
	if err != nil {
		return Result{}, err
	}
	var mit memctrl.Mitigation = memctrl.None{}
	if opts.Mitigation != nil {
		if m := opts.Mitigation(sys); m != nil {
			mit = m
		}
	}
	ctl := memctrl.New(sys, mit)

	var rec *obs.Recorder
	if opts.Events != nil {
		rec = obs.NewRecorder(*opts.Events)
		ctl.SetRecorder(rec)
		if o, ok := mit.(observableMitigation); ok {
			o.EnableObs(rec)
		}
	}

	paranoid := opts.Paranoid || envParanoid()
	var guards *runGuards
	if paranoid || opts.MaxSteps > 0 || opts.Deadline > 0 {
		guards = &runGuards{maxSteps: opts.MaxSteps}
		if opts.Deadline > 0 {
			guards.deadline = time.Now().Add(opts.Deadline)
		}
		if paranoid {
			guards.eng = invariant.NewEngine()
			if pm, ok := mit.(paranoidMitigation); ok {
				pm.EnableParanoid(guards.eng)
				guards.mit = pm
			} else {
				sys.EnableParanoid(guards.eng)
				guards.eng.Register("dram/structure", sys.CheckInvariants)
			}
		}
	}

	// Per-epoch hot-row sampling.
	var hotRowSamples []int64
	ctl.SetEpochHook(func(int64) {
		var rows int64
		sys.EachBank(func(id dram.BankID, _ *dram.Bank) {
			rows += int64(sys.RowsWithActsAtLeast(id, hotThreshold))
		})
		hotRowSamples = append(hotRowSamples, rows)
	})

	// Rate mode: each core gets its own copy of the workload in a
	// disjoint slice of the physical address space, and the workload's
	// system-wide hot-row count is split across the copies.
	totalLines := uint64(cfg.MemoryBytes()) / uint64(cfg.LineBytes)
	cores := make([]*cpu.Core, cfg.Cores)
	for i := range cores {
		var rd trace.Reader
		if opts.Readers != nil {
			rd = opts.Readers[i]
		} else {
			w := opts.Workloads[i%len(opts.Workloads)]
			w.HotRows = splitHotRows(w.HotRows, cfg.Cores, i)
			gen := trace.NewGenerator(w, trace.GeneratorParams{
				LineBytes: cfg.LineBytes,
				RowBytes:  cfg.RowBytes,
				HotShare:  opts.HotShare,
				Seed:      trace.PerCoreSeed(opts.Seed, i),
			})
			offset := uint64(i) * (totalLines / uint64(cfg.Cores))
			rd = &offsetReader{r: gen, offset: offset, mod: totalLines}
		}
		cores[i] = cpu.New(i, cfg, rd, opts.InstructionsPerCore)
		cores[i].Limit = opts.CycleLimit
	}

	var res Result
	res.Mitigation = mit

	// Total work for progress reporting: bus cycles when the run is
	// time-bounded, retired instructions otherwise.
	var progressTotal int64
	if opts.Progress != nil {
		if opts.CycleLimit > 0 {
			progressTotal = opts.CycleLimit
		} else {
			progressTotal = opts.InstructionsPerCore * int64(len(cores))
		}
	}
	report := func(done int64) {
		if opts.Progress == nil {
			return
		}
		if done > progressTotal {
			done = progressTotal
		}
		opts.Progress(done, progressTotal)
	}

	// The step budget is enforced exactly, per access — not at the
	// sparse checkInterval poll points, which would overshoot budgets
	// below (or not a multiple of) the interval by up to interval-1.
	var maxSteps int64
	if guards != nil {
		maxSteps = guards.maxSteps
	}

	// Cache per-core next-issue times: a core's value changes only when
	// that core issues or completes, so each iteration re-queries just
	// the core that issued instead of every core.
	nextTimes := make([]int64, len(cores))
	havePending := make([]bool, len(cores))
	for i, c := range cores {
		nextTimes[i], havePending[i] = c.NextIssueTime()
	}
	for {
		// Pick the core with the earliest next access.
		nextIdx := -1
		var nextT int64
		for i := range cores {
			if !havePending[i] {
				continue
			}
			if nextIdx < 0 || nextTimes[i] < nextT {
				nextIdx, nextT = i, nextTimes[i]
			}
		}
		if nextIdx < 0 {
			break
		}
		next := cores[nextIdx]
		if res.Accesses%checkInterval == 0 && res.Accesses > 0 {
			if opts.Context != nil {
				if err := opts.Context.Err(); err != nil {
					return Result{}, fmt.Errorf("sim: run interrupted: %w", err)
				}
			}
			if guards != nil {
				if err := guards.poll(res.Accesses); err != nil {
					return Result{}, err
				}
			}
			if opts.Progress != nil {
				if opts.CycleLimit > 0 {
					report(nextT)
				} else {
					var insts int64
					for _, c := range cores {
						insts += c.Instructions()
					}
					report(insts)
				}
			}
		}
		rec, at := next.Issue()
		res.Accesses++
		done := ctl.Access(rec.Line, rec.Write, at)
		if !rec.Write {
			// Loads occupy the ROB until data returns (plus the LLC fill
			// hop); stores are posted.
			next.Complete(next.Pos(), done+llcHitBusCycles)
		}
		nextTimes[nextIdx], havePending[nextIdx] = next.NextIssueTime()
		if maxSteps > 0 && res.Accesses >= maxSteps {
			return Result{}, fmt.Errorf("%w after %d accesses", ErrStepBudget, res.Accesses)
		}
	}

	// Close the run: find the global end time and flush epochs.
	var end int64
	var ipcSum float64
	for _, c := range cores {
		f := c.FinishTime()
		if f > end {
			end = f
		}
		res.Instructions += c.Instructions()
	}
	for _, c := range cores {
		cpuCycles := float64(c.FinishTime()) * config.CPUCyclesPerBusCycle
		if cpuCycles > 0 {
			ipcSum += float64(c.Instructions()) / cpuCycles
		}
	}
	ctl.AdvanceTo(end)
	res.Cycles = end
	res.IPC = ipcSum / float64(len(cores))
	res.MemStats = ctl.Stats()
	res.Epochs = res.MemStats.Epochs
	if res.Instructions > 0 {
		res.MPKI = float64(res.Accesses) / float64(res.Instructions) * 1000
	}
	if len(hotRowSamples) > 0 {
		var sum int64
		for _, v := range hotRowSamples {
			sum += v
		}
		res.HotRowsPerEpoch = float64(sum) / float64(len(hotRowSamples))
	}
	if r, ok := mit.(*core.RRS); ok {
		st := r.Stats()
		if n := len(st.SwapsPerEpoch); n > 0 {
			var sum int64
			for _, v := range st.SwapsPerEpoch {
				sum += v
			}
			res.SwapsPerEpoch = float64(sum) / float64(n)
		} else {
			// No completed epoch: report the in-progress count.
			res.SwapsPerEpoch = float64(st.EpochSwaps)
		}
	}
	res.Energy = power.DefaultDRAMEnergy().Measure(sys, end)
	if guards != nil && guards.eng != nil {
		// Final catalog sweep, then fail the run on any latched violation.
		if err := guards.eng.RunAll(); err != nil {
			return Result{}, err
		}
		if guards.mit != nil {
			if err := guards.mit.Err(); err != nil {
				return Result{}, err
			}
		}
		s := guards.eng.Summary()
		res.Invariants = &s
	}
	if rec != nil {
		res.Timeline = rec.Timeline()
	}
	report(progressTotal)
	return res, nil
}

// splitHotRows divides a system-wide hot-row target across cores: core i
// of n gets the i-th share (earlier cores take the remainder).
func splitHotRows(total, cores, i int) int {
	share := total / cores
	if i < total%cores {
		share++
	}
	return share
}

// offsetReader relocates a core's trace into its own address-space slice.
type offsetReader struct {
	r      trace.Reader
	offset uint64
	mod    uint64
}

// Next implements trace.Reader.
func (o *offsetReader) Next() (trace.Record, bool) {
	rec, ok := o.r.Next()
	if !ok {
		// Do not rewrite the zero record at EOF: the offset/mod arithmetic
		// would fabricate a non-zero line for a record that does not exist.
		return trace.Record{}, false
	}
	rec.Line = (rec.Line + o.offset) % o.mod
	return rec, ok
}

// NormalizedPerformance returns mitigated IPC over baseline IPC for the
// same options (the paper's Figures 6, 10 and 11 metric).
func NormalizedPerformance(opts Options, mitigation func(*dram.System) memctrl.Mitigation) (float64, Result, Result, error) {
	base := opts
	base.Mitigation = nil
	baseRes, err := Run(base)
	if err != nil {
		return 0, Result{}, Result{}, err
	}
	mitOpts := opts
	mitOpts.Mitigation = mitigation
	mitRes, err := Run(mitOpts)
	if err != nil {
		return 0, Result{}, Result{}, err
	}
	if baseRes.IPC == 0 {
		return 0, baseRes, mitRes, fmt.Errorf("sim: baseline IPC is zero")
	}
	return mitRes.IPC / baseRes.IPC, baseRes, mitRes, nil
}
