package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/service"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	group int // metric-applicability group (metrics.go)
	// start sets up a fresh instance: the systems to simulate, or a
	// service deployment with its caches warm. setup_s times it.
	start func(ctx context.Context, p params) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// measure runs the workload for about budget (at least one unit of
	// work) and reports what it saw. A traced phase also counts calls
	// into the mitigation layer.
	measure(ctx context.Context, traced bool, budget time.Duration) (*phase, error)
	// specs are the simulations whose set-up cost setup.* reports.
	specs() []service.Spec
	close()
}

// workloads, in run order. README.md records why each exists.
var workloads = []workload{
	{"sim-mcf-rrs", gSim, startMCF},
	{"sim-hmmer-zoo", gZoo, startZoo},
	{"serve-mixed", gServe, startServe},
	{"sweep-shootout", gSweep, startSweep},
	{"fleet-3node", gFleet, startFleet},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// size scales every workload; smoke tests run the toy size.
type size struct {
	// setupReps set-ups run at least, and more, up to maxSetupReps,
	// while their total stays under setupBudget; setup_s is their median.
	setupReps   int
	setupBudget time.Duration
	simScale    int // epoch shrink factor of the sim workloads
	zooEpochs   int // epochs of each sim-hmmer-zoo run
	serveScale  int // epoch shrink factor of the served jobs
	warmOps     int // unrecorded warm-up requests per client and phase
	maxOps      int // recorded requests per client and phase; 0 = until the budget is spent
	// sweepWorkloads is the number of catalog workloads the sweep covers
	// (0 = all).
	sweepWorkloads int
	// zooSkip leaves one defense out of sim-hmmer-zoo ("" = none).
	zooSkip string
}

var (
	fullSize = size{setupReps: 5, setupBudget: 2 * time.Second, simScale: 16, zooEpochs: 2, serveScale: 1024, warmOps: 50}
	// toySize keeps the smoke test short under the race detector: one
	// epoch per zoo run, and no Rubix, whose keyed row permutation takes
	// seconds to build there.
	toySize = size{setupReps: 1, simScale: 256, zooEpochs: 1, serveScale: 16384, warmOps: 2, maxOps: 10,
		sweepWorkloads: 1, zooSkip: service.MitRubix}
)

const maxSetupReps = 21

// params are one run's settings.
type params struct {
	seed    uint64
	budget  time.Duration // measured time per phase
	workdir string        // scratch files live here
	size    size
	trace   bool
	profile string // traced run: write the CPU profile here
}

// phase is what one measured stretch of a workload saw.
type phase struct {
	// rate is the workload's unit of work per second: simulated
	// accesses (sims), requests (serve, fleet) or sweep children (sweep).
	rate      sample
	latencies []float64 // per-request wall time, ms
	attempted int
	failed    int
	errs      []string
	layer     map[string]sample
	stats     map[string]simStats // sims: first-pass statistics by pin key
}

func newPhase() *phase {
	return &phase{layer: map[string]sample{}, stats: map[string]simStats{}}
}

// fail records a failed or mismatched request.
func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.errs) < 20 {
		ph.errs = append(ph.errs, fmt.Sprintf(format, args...))
	}
}

// result is one workload's outcome, as the child reports it.
type result struct {
	Workload  string              `json:"workload"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Errors    []string            `json:"errors,omitempty"`
	Metrics   map[string]sample   `json:"metrics"`
	Stats     map[string]simStats `json:"stats,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func (r *result) add(ph *phase) {
	r.Attempted += ph.attempted
	r.Failed += ph.failed
	r.Errors = append(r.Errors, ph.errs...)
}

// measureWorkload sets w up several times (reporting the median), then
// measures the last set-up untraced for the budget. A traced run then measures
// it again, profiled and counted, for another budget; the ratio of the
// two rates is trace_overhead.
func measureWorkload(ctx context.Context, w workload, p params) (*result, error) {
	var inst instance
	var setups []float64
	var spent time.Duration
	for i := 0; i < p.size.setupReps || (spent < p.size.setupBudget && i < maxSetupReps); i++ {
		if inst != nil {
			inst.close()
			runtime.GC() // the next set-up must not pay for this one's garbage
		}
		t0 := time.Now()
		var err error
		if inst, err = w.start(ctx, p); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer inst.close()

	res := &result{Workload: w.name, Metrics: map[string]sample{}}
	res.Metrics["setup_s"] = dist(setups, 0.5)
	runtime.GC()
	rss := sampleRSS()
	plain, err := inst.measure(ctx, false, p.budget)
	res.Metrics["rss_p90_mb"] = rss.stop()
	if err != nil {
		return nil, err
	}
	res.add(plain)
	res.Stats = plain.stats
	res.Metrics["work_per_s"] = plain.rate
	res.Metrics["latency_p50_ms"] = dist(plain.latencies, 0.50)
	if !p.trace {
		return res, nil
	}

	runtime.GC()
	traced, err := measureProfiled(ctx, inst, p.profile, p.budget)
	if err != nil {
		return nil, err
	}
	res.add(traced)
	for k, v := range traced.layer {
		res.Metrics[k] = v
	}
	res.Metrics["trace_overhead"] = sample{Value: plain.rate.Value / traced.rate.Value, N: traced.rate.N}
	dramMs, mitMs, err := buildTimes(inst.specs(), p.size.setupReps)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup.dram_new_ms"] = dramMs
	res.Metrics["setup.mitigation_new_ms"] = mitMs
	return res, nil
}

// measureProfiled runs the traced phase under the CPU profiler, writing
// the profile to the named file.
func measureProfiled(ctx context.Context, inst instance, profile string, budget time.Duration) (*phase, error) {
	f, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	ph, err := inst.measure(ctx, true, budget)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return ph, f.Close()
}

// buildTimes times what every simulation does before its first access —
// dram.New, then the mitigation factory lookup and call — for each spec,
// reps times, and reports the medians of the per-rep sums in ms.
func buildTimes(specs []service.Spec, reps int) (dramMs, mitMs sample, err error) {
	var dramT, mitT []float64
	for i := 0; i < reps; i++ {
		var d, m time.Duration
		for _, sp := range specs {
			bd, bm, err := buildOnce(sp)
			if err != nil {
				return sample{}, sample{}, err
			}
			d += bd
			m += bm
		}
		dramT = append(dramT, ms(d))
		mitT = append(mitT, ms(m))
	}
	return dist(dramT, 0.5), dist(mitT, 0.5), nil
}

// buildOnce builds sp's simulated system once — DRAM, mitigation and
// memory controller — and times the first two.
func buildOnce(sp service.Spec) (dramNew, mitNew time.Duration, err error) {
	opts, err := sp.Options()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	sys, err := dram.New(opts.Config)
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	n := sp.Normalize()
	factory, err := service.MitigationFactory(n.Mitigation, n.Scale, n.Blacklist)
	if err != nil {
		return 0, 0, err
	}
	var mit memctrl.Mitigation = memctrl.None{}
	if factory != nil {
		if m := factory(sys); m != nil {
			mit = m
		}
	}
	t2 := time.Now()
	memctrl.New(sys, mit)
	return t1.Sub(t0), t2.Sub(t1), nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// rssSampler reads the process's resident set size every 50 ms.
type rssSampler struct {
	done    chan struct{}
	samples chan []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{done: make(chan struct{}), samples: make(chan []float64)}
	go func() {
		var mb []float64
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			if v, ok := residentMB(); ok {
				mb = append(mb, v)
			}
			select {
			case <-s.done:
				s.samples <- mb
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the 90th percentile of the
// resident size in MB: the working footprint, without the brief peaks
// whose height depends on when the collector happened to run.
func (s *rssSampler) stop() sample {
	close(s.done)
	return dist(<-s.samples, 0.9)
}

// residentMB reads the resident set size from /proc/self/statm.
func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), true
}
