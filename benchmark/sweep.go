package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The sweep workload is the sweep `rrs-experiments -shootout -server`
// posts: the shootout's performance leg, every defense plus the
// unprotected baseline across the catalog workloads
// (experiments.Shootout). It is trimmed to fit a run in two ways. The
// scale is 256 with one epoch instead of DefaultScale's 16 with two, so
// that a cold sweep takes seconds, not minutes. And Rubix is left out,
// as `-mitigations` can: its keyed row shuffle costs about a second per
// child at any scale, so at scale 256 it would be three quarters of the
// sweep's CPU against a tenth at DefaultScale; sim-hmmer-zoo measures it.
// The 10 x 28 = 280 children overflow the 256-entry result cache, as
// the full shootout's 308 do.
const (
	sweepScale  = 256
	sweepEpochs = 1
)

// sweepMitigations are the sweep's Mitigations axis: the baseline, then
// the shootout's defenses without Rubix.
func sweepMitigations() []string {
	out := []string{service.MitNone}
	for _, m := range experiments.ShootoutMitigations() {
		if m != service.MitRubix {
			out = append(out, m)
		}
	}
	return out
}

// sweepWorkloads are the sweep's Workloads axis: the catalog's first n
// workloads (0 = all of them).
func sweepWorkloads(n int) []string {
	var out []string
	for _, w := range trace.Table3Workloads() {
		if n > 0 && len(out) == n {
			break
		}
		out = append(out, w.Name)
	}
	return out
}

// sweepBench submits the shootout sweep, waits for it, fetches its
// results, then resubmits the identical sweep.
type sweepBench struct {
	dep   *deployment
	p     params
	block uint64 // sweeps issued so far; each takes a fresh seed
}

func startSweep(ctx context.Context, p params) (instance, error) {
	dep, err := startServer(p)
	if err != nil {
		return nil, err
	}
	b := &sweepBench{dep: dep, p: p}
	if _, err := b.client().RunSweep(ctx, b.sweep(1)); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return b, nil
}

// sweep returns the next sweep over the first n catalog workloads, with
// a fresh seed derived from the run's seed.
func (b *sweepBench) sweep(n int) service.SweepSpec {
	base := sweepChild(service.MitNone, b.p.seed<<16|b.block)
	b.block++
	return service.SweepSpec{Base: base, Axes: service.SweepAxes{
		Mitigations: sweepMitigations(), Workloads: sweepWorkloads(n)}}
}

// sweepChild is one child of the sweep on the first catalog workload.
func sweepChild(mitigation string, seed uint64) service.Spec {
	return service.Spec{Workloads: sweepWorkloads(1), Mitigation: mitigation,
		Scale: sweepScale, Epochs: sweepEpochs, Seed: seed}
}

func (b *sweepBench) client() *service.Client {
	c := service.NewClient(b.dep.urls[0])
	c.PollInterval = pollInterval
	return c
}

// specs are one workload's row of the sweep: what its children build
// before their first access.
func (b *sweepBench) specs() []service.Spec {
	var out []service.Spec
	for _, m := range sweepMitigations() {
		out = append(out, sweepChild(m, b.p.seed<<16))
	}
	return out
}

func (b *sweepBench) close() { b.dep.close() }

var sweepCounters = []string{"rrs_runs_started_total", "rrs_sweep_children_cached_total"}

// measure runs cold-sweep-then-resubmit cycles until another would
// overrun the budget. The request is the cold sweep, the time a user
// waits for a fresh shootout; the rate is children completed per second
// over both sweeps, so that it moves with the resubmission's cost too.
func (b *sweepBench) measure(ctx context.Context, traced bool, budget time.Duration) (*phase, error) {
	ph := newPhase()
	cl := b.client()
	var expand, post, results, resubS, resubRuns, hitRatio, submitUs, bytesPerJob []float64
	var children int
	var sweepTime time.Duration
	start := time.Now()
	var last time.Duration
	for cycles := 0; cycles == 0 || time.Since(start)+last <= budget; cycles++ {
		t0 := time.Now()
		ss := b.sweep(b.p.size.sweepWorkloads)
		te := time.Now()
		specs, err := ss.Expand()
		expand = append(expand, ms(time.Since(te)))
		if err != nil {
			return nil, err
		}
		journal0 := b.dep.journalSize()
		c0, err := b.dep.counters(ctx, sweepCounters...)
		if err != nil {
			return nil, err
		}

		ph.attempted++
		tc := time.Now()
		v, err := cl.SubmitSweep(ctx, ss)
		post = append(post, ms(time.Since(tc)))
		var cold service.SweepResultsEnvelope
		if err == nil {
			cold, err = cl.SweepResults(ctx, v.ID)
		}
		dCold := time.Since(tc)
		if err != nil {
			ph.fail("cold sweep: %v", err)
			continue
		}
		if err := checkSweep(cold, specs, nil); err != nil {
			ph.fail("cold sweep: %v", err)
		}
		c1, err := b.dep.counters(ctx, sweepCounters...)
		if err != nil {
			return nil, err
		}
		tr := time.Now()
		if _, err := cl.SweepResults(ctx, v.ID); err != nil {
			return nil, err
		}
		results = append(results, ms(time.Since(tr)))

		ph.attempted++
		tr = time.Now()
		v, err = cl.SubmitSweep(ctx, ss)
		var again service.SweepResultsEnvelope
		if err == nil {
			again, err = cl.SweepResults(ctx, v.ID)
		}
		dResub := time.Since(tr)
		if err != nil {
			ph.fail("resubmitted sweep: %v", err)
			continue
		}
		if err := checkSweep(again, specs, cold.Results); err != nil {
			ph.fail("resubmitted sweep: %v", err)
		}
		c2, err := b.dep.counters(ctx, sweepCounters...)
		if err != nil {
			return nil, err
		}

		ph.latencies = append(ph.latencies, ms(dCold))
		resubS = append(resubS, dResub.Seconds())
		children += 2 * len(specs)
		sweepTime += dCold + dResub
		runs := c2["rrs_runs_started_total"] - c1["rrs_runs_started_total"]
		resubRuns = append(resubRuns, float64(runs))
		cached := c2["rrs_sweep_children_cached_total"] - c1["rrs_sweep_children_cached_total"]
		hitRatio = append(hitRatio, float64(cached)/float64(len(specs)))
		if jobs := c2["rrs_runs_started_total"] - c0["rrs_runs_started_total"]; jobs > 0 {
			bytesPerJob = append(bytesPerJob, float64(b.dep.journalSize()-journal0)/float64(jobs))
		}
		us, err := submitHitMicros(b.dep.mgrs, specs[max(0, len(specs)-64):], 200)
		if err != nil {
			return nil, err
		}
		submitUs = append(submitUs, us...)
		last = time.Since(t0)
	}
	if sweepTime == 0 {
		return nil, fmt.Errorf("no sweep completed")
	}
	ph.rate = sample{Value: float64(children) / sweepTime.Seconds(), N: children}
	l := ph.layer
	l["sweep_cold_s"] = sample{Value: quantile(ph.latencies, 0.5) / 1000, N: len(ph.latencies)}
	l["sweep_resubmit_s"] = dist(resubS, 0.5)
	l["sweep.expand_ms"] = dist(expand, 0.5)
	l["sweep.post_ms"] = dist(post, 0.5)
	l["sweep.results_ms"] = dist(results, 0.5)
	l["sweep.resubmit_runs"] = dist(resubRuns, 0.5)
	l["cache.resubmit_hit_ratio"] = dist(hitRatio, 0.5)
	l["manager.submit_hit_us_p50"] = dist(submitUs, 0.5)
	l["journal.bytes_per_job"] = dist(bytesPerJob, 0.5)
	l["sim.run_ms_p50"] = dist(b.dep.runs.since(start), 0.5)
	return ph, nil
}

// checkSweep verifies a finished sweep: done, one result per expanded
// child, each plausible, and — for a resubmission — each bit-identical
// to the first sweep's.
func checkSweep(env service.SweepResultsEnvelope, specs []service.Spec, want map[string]sim.Result) error {
	if env.State != service.StateDone {
		return fmt.Errorf("state %s: %s", env.State, env.Error)
	}
	if len(env.Results) != len(specs) {
		return fmt.Errorf("%d results for %d children", len(env.Results), len(specs))
	}
	for _, sp := range specs {
		h := sp.Hash()
		got, ok := env.Results[h]
		if !ok {
			return fmt.Errorf("child %s/%s seed %d has no result", sp.Workloads[0], sp.Mitigation, sp.Seed)
		}
		if got.Accesses == 0 || got.Epochs != sweepEpochs {
			return fmt.Errorf("child %s/%s seed %d: implausible result", sp.Workloads[0], sp.Mitigation, sp.Seed)
		}
		if want != nil {
			a, _ := json.Marshal(got)
			b, _ := json.Marshal(want[h])
			if !bytes.Equal(a, b) {
				return fmt.Errorf("child %s/%s seed %d: resubmitted result differs", sp.Workloads[0], sp.Mitigation, sp.Seed)
			}
		}
	}
	return nil
}
