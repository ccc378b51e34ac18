package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/memctrl"
	"repro/internal/service"
	"repro/internal/sim"
)

// simStats are the deterministic outputs of one simulation — the fields
// pins.json freezes, named as in cmd/rrs-bench/pins.json.
type simStats struct {
	IPC             float64 `json:"ipc"`
	MPKI            float64 `json:"mpki"`
	Instructions    int64   `json:"instructions"`
	Cycles          int64   `json:"cycles"`
	Accesses        int64   `json:"accesses"`
	Epochs          int64   `json:"epochs"`
	HotRowsPerEpoch float64 `json:"hot_rows_per_epoch"`
	SwapsPerEpoch   float64 `json:"swaps_per_epoch"`
}

func statsOf(r sim.Result) simStats {
	return simStats{
		IPC: r.IPC, MPKI: r.MPKI, Instructions: r.Instructions, Cycles: r.Cycles,
		Accesses: r.Accesses, Epochs: r.Epochs, HotRowsPerEpoch: r.HotRowsPerEpoch,
		SwapsPerEpoch: r.SwapsPerEpoch,
	}
}

// pinsFile is pins.json: every sim workload's statistics at defaultSeed.
type pinsFile struct {
	Seed uint64              `json:"seed"`
	Sims map[string]simStats `json:"sims"`
}

//go:embed pins.json
var pinsJSON []byte

// checkPins compares a sim workload's first-run statistics with
// pins.json; each drift is a failed request.
func checkPins(r *result) error {
	var pf pinsFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	keys := make([]string, 0, len(r.Stats))
	for k := range r.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got := r.Stats[k]
		want, ok := pf.Sims[k]
		switch {
		case !ok:
			r.fail("%s: no pin in pins.json (regenerate with -write-pins)", k)
		case got != want:
			r.fail("%s: drifted from pins.json:\n  got  %+v\n  want %+v", k, got, want)
		}
	}
	return nil
}

// simCase is one simulation of a sim workload's pass.
type simCase struct {
	key  string // pin key
	spec service.Spec
	opts sim.Options
	// ref is the first untraced run's statistics: every later run of
	// this case must reproduce them exactly.
	ref *simStats
}

// simBench runs its cases back to back, pass after pass.
type simBench struct {
	cases []*simCase
}

func startMCF(_ context.Context, p params) (instance, error) {
	return startSims(p, &simCase{key: "sim-mcf-rrs", spec: service.Spec{
		Workloads: []string{"mcf"}, Mitigation: service.MitRRS,
		Scale: p.size.simScale, Epochs: 1, Seed: p.seed}})
}

func startZoo(_ context.Context, p params) (instance, error) {
	// Every defense the service accepts, "none" included as the floor.
	var cases []*simCase
	for _, m := range service.MitigationNames() {
		if m == p.size.zooSkip {
			continue
		}
		cases = append(cases, &simCase{key: "sim-hmmer-zoo/" + m, spec: service.Spec{
			Workloads: []string{"hmmer"}, Mitigation: m,
			Scale: p.size.simScale, Epochs: p.size.zooEpochs, Seed: p.seed}})
	}
	return startSims(p, cases...)
}

// startSims compiles every case's spec and builds its simulated system
// once: the set-up a simulation pays before its first access.
func startSims(p params, cases ...*simCase) (*simBench, error) {
	b := &simBench{cases: cases}
	for _, c := range cases {
		opts, err := c.spec.Options()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.key, err)
		}
		if _, _, err := buildOnce(c.spec); err != nil {
			return nil, fmt.Errorf("%s: %w", c.key, err)
		}
		c.opts = opts
	}
	return b, nil
}

func (b *simBench) specs() []service.Spec {
	out := make([]service.Spec, len(b.cases))
	for i, c := range b.cases {
		out[i] = c.spec
	}
	return out
}

func (b *simBench) close() {}

// measure runs whole passes over the cases until another pass would
// overrun the budget. A pass is the workload's request: its latency is
// the sum of its sim.Run times, its rate its simulated accesses over
// that sum, and work_per_s the median pass rate.
func (b *simBench) measure(ctx context.Context, traced bool, budget time.Duration) (*phase, error) {
	ph := newPhase()
	var passRates, runs []float64 // per pass, per sim.Run (ms)
	perMit := map[string][]float64{}
	var counts mitCounts
	var mem memctrl.Stats
	var accesses int64
	start := time.Now()
	var last time.Duration
	for passes := 0; passes == 0 || time.Since(start)+last <= budget; passes++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var passAcc int64
		var passWall time.Duration
		for _, c := range b.cases {
			opts := c.opts
			var n mitCounts
			if traced {
				opts.Mitigation = countingFactory(opts.Mitigation, &n)
			}
			ph.attempted++
			// Collect the previous run's system first, so that every run
			// starts from the same heap and no collection of its garbage
			// lands in a timed run or in the resident set.
			runtime.GC()
			t := time.Now()
			res, err := sim.Run(opts)
			d := time.Since(t)
			if err != nil {
				ph.fail("%s: %v", c.key, err)
				continue
			}
			runs = append(runs, ms(d))
			passAcc += res.Accesses
			passWall += d
			perMit[c.spec.Mitigation] = append(perMit[c.spec.Mitigation], float64(res.Accesses)/d.Seconds())
			if err := b.check(c, res, traced, ph); err != nil {
				ph.fail("%s: %v", c.key, err)
			}
			counts.add(n)
			mem = addMemStats(mem, res.MemStats)
			accesses += res.Accesses
		}
		last = time.Since(t0)
		if passWall > 0 {
			ph.latencies = append(ph.latencies, ms(passWall))
			passRates = append(passRates, float64(passAcc)/passWall.Seconds())
		}
	}
	ph.rate = dist(passRates, 0.5)
	passes := float64(len(passRates))
	ph.layer["sim.run_ms_p50"] = dist(runs, 0.5)
	if accesses > 0 && passes > 0 {
		per := func(v int64) sample { return sample{Value: float64(v) / float64(accesses), N: int(accesses)} }
		ph.layer["mitigation.remap_per_access"] = per(counts.Remap)
		ph.layer["mitigation.activate_delay_per_access"] = per(counts.ActivateDelay)
		ph.layer["mitigation.on_activate_per_access"] = per(counts.OnActivate)
		ph.layer["mitigation.on_activate_n_per_access"] = per(counts.OnActivateN)
		ph.layer["mitigation.batched_acts_per_access"] = per(counts.BatchedActs)
		ph.layer["mitigation.on_epoch_calls"] = sample{Value: float64(counts.OnEpoch) / passes, N: len(passRates)}
		reqs := mem.Reads + mem.Writes
		ph.layer["memctrl.row_hit_ratio"] = sample{Value: float64(mem.RowHits) / float64(reqs), N: int(reqs)}
		ph.layer["memctrl.acts_per_access"] = sample{Value: float64(mem.RowMisses+mem.RowConflicts) / float64(reqs), N: int(reqs)}
		ph.layer["memctrl.act_delayed_cycles"] = sample{Value: float64(mem.ActDelayed) / passes, N: len(passRates)}
	}
	if len(b.cases) > 1 {
		for m, rates := range perMit {
			ph.layer["zoo."+m+".accesses_per_s"] = dist(rates, 0.5)
		}
	}
	return ph, nil
}

// check compares a run's statistics with the case's first untraced run,
// which the phase reports for the pin check. A traced run hides the
// *core.RRS behind the counting wrapper, so sim cannot report its swaps;
// every other statistic must still match.
func (b *simBench) check(c *simCase, res sim.Result, traced bool, ph *phase) error {
	got := statsOf(res)
	if c.ref == nil {
		if traced {
			return fmt.Errorf("traced run before any untraced reference")
		}
		c.ref = &got
		ph.stats[c.key] = got
		return nil
	}
	want := *c.ref
	if traced {
		got.SwapsPerEpoch, want.SwapsPerEpoch = 0, 0
	}
	if got != want {
		return fmt.Errorf("run differs from the first run:\n  got  %+v\n  want %+v", got, want)
	}
	return nil
}

func addMemStats(a, b memctrl.Stats) memctrl.Stats {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.RowHits += b.RowHits
	a.RowMisses += b.RowMisses
	a.RowConflicts += b.RowConflicts
	a.TotalLatency += b.TotalLatency
	a.ActDelayed += b.ActDelayed
	a.Epochs += b.Epochs
	return a
}
