package main

import (
	"math"
	"sort"

	"repro/internal/service"
)

// The metric registry. BENCHMARK.json at the repository root lists the
// same names, units and directions (TestBenchmarkJSONMatchesRegistry
// keeps the two in step); this table adds which workloads exercise each
// metric. A metric a workload does not exercise is reported as 0.

// Workload groups a metric can apply to.
const (
	gSim   = 1 << iota // sim-mcf-rrs
	gZoo               // sim-hmmer-zoo
	gServe             // serve-mixed
	gSweep             // sweep-shootout
	gFleet             // fleet-3node

	gSims = gSim | gZoo
	gAll  = gSims | gServe | gSweep | gFleet
)

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening of the median, as a share
	groups int     // workloads that exercise the metric
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, gAll},
	{"work_per_s", "1/s", "higher", 0.24, gAll},
	{"latency_p50_ms", "ms", "lower", 0.24, gAll},
	{"rss_p90_mb", "MB", "lower", 0.15, gAll},
}

// profileLayers are the CPU-profile buckets: each sample is charged to
// its innermost frame in one of these packages, or to "other".
var profileLayers = []string{
	"sim", "cpu", "memctrl", "dram", "trace", "core", "tracker", "rit",
	"cat", "prince", "mitigation", "power", "obs", "service", "fleet",
	"resilience", "net_http", "encoding_json", "crypto_sha256", "syscall",
	"other",
}

// perLayer are the traced run's metrics.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range profileLayers {
		defs = append(defs, metricDef{"profile." + l + ".share", "fraction", "lower", 0, gAll})
	}
	defs = append(defs,
		metricDef{"trace_overhead", "ratio", "lower", 0, gAll},
		metricDef{"peak_rss_mb", "MB", "lower", 0, gAll},
		metricDef{"sim.run_ms_p50", "ms", "lower", 0, gAll},
		metricDef{"setup.dram_new_ms", "ms", "lower", 0, gAll},
		metricDef{"setup.mitigation_new_ms", "ms", "lower", 0, gAll},

		metricDef{"mitigation.remap_per_access", "calls/access", "lower", 0, gSims},
		metricDef{"mitigation.activate_delay_per_access", "calls/access", "lower", 0, gSims},
		metricDef{"mitigation.on_activate_per_access", "calls/access", "lower", 0, gSims},
		metricDef{"mitigation.on_activate_n_per_access", "calls/access", "lower", 0, gSims},
		metricDef{"mitigation.batched_acts_per_access", "acts/access", "higher", 0, gSims},
		metricDef{"mitigation.on_epoch_calls", "count", "lower", 0, gSims},
		metricDef{"memctrl.row_hit_ratio", "fraction", "higher", 0, gSims},
		metricDef{"memctrl.acts_per_access", "acts/access", "lower", 0, gSims},
		metricDef{"memctrl.act_delayed_cycles", "cycles", "lower", 0, gSims},
	)
	for _, m := range service.MitigationNames() {
		defs = append(defs, metricDef{"zoo." + m + ".accesses_per_s", "1/s", "higher", 0, gZoo})
	}
	defs = append(defs,
		metricDef{"hit_p50_ms", "ms", "lower", 0, gServe | gFleet},
		metricDef{"hit_p99_ms", "ms", "lower", 0, gServe | gFleet},
		metricDef{"cold_p50_ms", "ms", "lower", 0, gServe | gFleet},
		metricDef{"cold_p99_ms", "ms", "lower", 0, gServe | gFleet},
		metricDef{"cold_overhead_p50_ms", "ms", "lower", 0, gServe | gFleet},
		metricDef{"http.submit_hit_ms_p50", "ms", "lower", 0, gServe | gFleet},
		metricDef{"http.submit_cold_ms_p50", "ms", "lower", 0, gServe | gFleet},
		metricDef{"manager.queue_wait_ms_p50", "ms", "lower", 0, gServe | gFleet},
		metricDef{"client.poll_wait_ms_p50", "ms", "lower", 0, gServe | gFleet},
		metricDef{"metrics.scrape_ms_p50", "ms", "lower", 0, gServe | gFleet},
		metricDef{"manager.submit_hit_us_p50", "us", "lower", 0, gServe | gSweep | gFleet},
		metricDef{"journal.bytes_per_job", "bytes", "lower", 0, gServe | gSweep},

		metricDef{"sweep_cold_s", "s", "lower", 0, gSweep},
		metricDef{"sweep_resubmit_s", "s", "lower", 0, gSweep},
		metricDef{"sweep.expand_ms", "ms", "lower", 0, gSweep},
		metricDef{"sweep.post_ms", "ms", "lower", 0, gSweep},
		metricDef{"sweep.results_ms", "ms", "lower", 0, gSweep},
		metricDef{"sweep.resubmit_runs", "count", "lower", 0, gSweep},
		metricDef{"cache.resubmit_hit_ratio", "fraction", "higher", 0, gSweep},

		metricDef{"fleet.hit_owner_ms_p50", "ms", "lower", 0, gFleet},
		metricDef{"fleet.hit_nonowner_ms_p50", "ms", "lower", 0, gFleet},
		metricDef{"fleet.forwards_per_op", "1/op", "lower", 0, gFleet},
		metricDef{"fleet.proxied_per_op", "1/op", "lower", 0, gFleet},
		metricDef{"fleet.fanout_checks_per_cold", "1/op", "lower", 0, gFleet},
		metricDef{"fleet.fanout_hits_per_cold", "1/op", "higher", 0, gFleet},
		metricDef{"fleet.replicated_per_cold", "1/op", "lower", 0, gFleet},
		metricDef{"fleet.steals", "count", "lower", 0, gFleet},
	)
	return defs
}()

// sample is one reported value and the number of measurements behind it.
type sample struct {
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// dist summarizes a distribution as its value at quantile q.
func dist(xs []float64, q float64) sample {
	return sample{Value: quantile(xs, q), N: len(xs)}
}
