// Command rrs-loadgen measures a serving fleet's capacity: closed-loop
// clients submit real (small) simulation jobs and wait for results,
// ramping concurrency level by level, and the run is published as a
// JSON report with throughput, latency percentiles and fleet counters.
//
// Two ways to point it at a fleet:
//
//	rrs-loadgen -targets http://h1:8080,http://h2:8080 -levels 1,2,4,8
//	rrs-loadgen -local 3 -levels 1,2,4 -out BENCH_PR8.fleet.json
//
// -local N spins up an N-node in-process fleet (real engine, loopback
// HTTP) so a laptop or CI box can benchmark the fleet path with no
// deployment. Each client is closed-loop — it submits, waits for the
// result, and only then submits again — so offered load equals
// concurrency and the system is never driven past its capacity into
// meaningless queue growth.
//
// Every request uses a unique seed by default, defeating the result
// cache and measuring true simulation capacity. -cache-fraction mixes
// in repeated specs to show the fleet-wide cache path instead.
//
// -slo-p99 asserts a latency objective: if any level's p99 exceeds it,
// the report is still written but the exit status is 1 — CI-friendly
// capacity regression guarding.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/resilience"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "rrs-loadgen: %v\n", err)
		os.Exit(1)
	}
}

// report is the published benchmark artifact.
type report struct {
	GeneratedAt   string           `json:"generated_at"`
	Targets       []string         `json:"targets"`
	LocalNodes    int              `json:"local_nodes,omitempty"`
	Workload      service.Spec     `json:"workload_template"`
	JobsPerClient int              `json:"jobs_per_client"`
	CacheFraction float64          `json:"cache_fraction"`
	SLOP99Millis  float64          `json:"slo_p99_ms,omitempty"`
	Levels        []levelReport    `json:"levels"`
	FleetCounters map[string]int64 `json:"fleet_counters,omitempty"`
	SLOViolated   bool             `json:"slo_violated"`
}

type levelReport struct {
	Clients     int     `json:"clients"`
	Jobs        int     `json:"jobs"`
	Errors      int     `json:"errors"`
	Seconds     float64 `json:"seconds"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	P50Millis   float64 `json:"p50_ms"`
	P90Millis   float64 `json:"p90_ms"`
	P99Millis   float64 `json:"p99_ms"`
	MaxMillis   float64 `json:"max_ms"`
	SLOExceeded bool    `json:"slo_exceeded,omitempty"`
}

func run() error {
	var (
		targetsFlag = flag.String("targets", "", "comma-separated fleet node base URLs")
		localNodes  = flag.Int("local", 0, "spin up an in-process fleet of N nodes instead of -targets")
		levelsFlag  = flag.String("levels", "1,2,4", "comma-separated closed-loop client counts, ramped in order")
		jobsPer     = flag.Int("jobs-per-client", 8, "jobs each client completes per level")
		workload    = flag.String("workload", "bzip2", "workload trace for the benchmark spec")
		mitigation  = flag.String("mitigation", "rrs", "mitigation for the benchmark spec")
		scale       = flag.Int("scale", 16, "memory scale divisor for the benchmark spec")
		epochs      = flag.Int("epochs", 1, "epochs per benchmark job")
		cacheFrac   = flag.Float64("cache-fraction", 0, "fraction of jobs reusing one hot spec (0 = all unique, cache-defeating)")
		sloP99      = flag.Duration("slo-p99", 0, "fail (exit 1) if any level's p99 end-to-end latency exceeds this (0 disables)")
		out         = flag.String("out", "", "write the JSON report here ('-' or empty = stdout)")
		timeout     = flag.Duration("timeout", 10*time.Minute, "whole-run budget")
	)
	flag.Parse()

	levels, err := parseLevels(*levelsFlag)
	if err != nil {
		return err
	}

	var targets []string
	if *localNodes > 0 {
		stop, urls, err := startLocalFleet(*localNodes)
		if err != nil {
			return err
		}
		defer stop()
		targets = urls
		fmt.Fprintf(os.Stderr, "rrs-loadgen: local fleet of %d nodes up\n", *localNodes)
	} else {
		for _, t := range strings.Split(*targetsFlag, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, t)
			}
		}
		if len(targets) == 0 {
			return fmt.Errorf("need -targets or -local")
		}
	}

	template := service.Spec{
		Workloads:  []string{*workload},
		Mitigation: *mitigation,
		Scale:      *scale,
		Epochs:     *epochs,
	}
	if err := template.Validate(); err != nil {
		return fmt.Errorf("benchmark spec: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	rep := report{
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Targets:       targets,
		LocalNodes:    *localNodes,
		Workload:      template,
		JobsPerClient: *jobsPer,
		CacheFraction: *cacheFrac,
	}
	if *sloP99 > 0 {
		rep.SLOP99Millis = float64(sloP99.Milliseconds())
	}

	var seedCounter atomic.Uint64
	seedCounter.Store(1)
	for _, clients := range levels {
		lr := runLevel(ctx, targets, template, clients, *jobsPer, *cacheFrac, &seedCounter)
		if *sloP99 > 0 && lr.P99Millis > float64(sloP99.Milliseconds()) {
			lr.SLOExceeded = true
			rep.SLOViolated = true
		}
		rep.Levels = append(rep.Levels, lr)
		fmt.Fprintf(os.Stderr,
			"rrs-loadgen: %2d clients: %6.2f jobs/s, p50 %.0fms p99 %.0fms (%d jobs, %d errors)\n",
			lr.Clients, lr.JobsPerSec, lr.P50Millis, lr.P99Millis, lr.Jobs, lr.Errors)
	}

	rep.FleetCounters = scrapeFleetCounters(ctx, targets)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" || *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	if rep.SLOViolated {
		return fmt.Errorf("p99 SLO %s violated (see report)", *sloP99)
	}
	return nil
}

// runLevel drives one closed-loop concurrency level to completion.
func runLevel(ctx context.Context, targets []string, template service.Spec,
	clients, jobsPer int, cacheFrac float64, seeds *atomic.Uint64) levelReport {
	var mu sync.Mutex
	var latencies []time.Duration
	errs := 0

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client pins a target round-robin by index — in a fleet
			// any node accepts any job, so spreading the entry points
			// exercises forwarding rather than hammering one node.
			client := service.NewClient(targets[c%len(targets)])
			client.PollInterval = 10 * time.Millisecond
			for i := 0; i < jobsPer; i++ {
				spec := template
				// The hot spec (seed 0 stays fixed) models dashboard-style
				// repeated queries; unique seeds model fresh work.
				if cacheFrac > 0 && float64(i%jobsPer) < cacheFrac*float64(jobsPer) {
					spec.Seed = 1
				} else {
					spec.Seed = seeds.Add(1)
				}
				t0 := time.Now()
				_, err := client.Run(ctx, spec)
				d := time.Since(t0)
				mu.Lock()
				if err != nil {
					errs++
				} else {
					latencies = append(latencies, d)
				}
				mu.Unlock()
				if ctx.Err() != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	lr := levelReport{
		Clients: clients,
		Jobs:    len(latencies),
		Errors:  errs,
		Seconds: elapsed.Seconds(),
	}
	if elapsed > 0 {
		lr.JobsPerSec = float64(len(latencies)) / elapsed.Seconds()
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		pct := func(p float64) float64 {
			idx := int(p * float64(len(latencies)-1))
			return float64(latencies[idx].Microseconds()) / 1000
		}
		lr.P50Millis = pct(0.50)
		lr.P90Millis = pct(0.90)
		lr.P99Millis = pct(0.99)
		lr.MaxMillis = float64(latencies[len(latencies)-1].Microseconds()) / 1000
	}
	return lr
}

// scrapeFleetCounters sums the fleet-interesting counters across every
// reachable target's /metrics endpoint.
func scrapeFleetCounters(ctx context.Context, targets []string) map[string]int64 {
	interesting := []string{
		"rrs_jobs_done_total", "rrs_cache_hits_total",
		"rrs_fleet_forwards_total", "rrs_fleet_forward_failovers_total",
		"rrs_fleet_proxied_total", "rrs_fleet_cache_fanout_hits_total",
		"rrs_fleet_replicated_total", "rrs_fleet_replicas_received_total",
		"rrs_fleet_repair_replicated_total",
	}
	sums := map[string]int64{}
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, t := range targets {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, t+"/metrics?format=json", nil)
		if err != nil {
			continue
		}
		resp, err := hc.Do(req)
		if err != nil {
			continue
		}
		var view service.JSONView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, name := range interesting {
			if v, ok := view.Counters[name]; ok {
				sums[name] += v
			}
		}
	}
	return sums
}

// startLocalFleet brings up n fleet nodes with the real engine on
// loopback listeners and returns their URLs plus a teardown.
func startLocalFleet(n int) (stop func(), urls []string, err error) {
	swaps := make([]*swapHandler, n)
	srvs := make([]*httptest.Server, n)
	roster := make([]fleet.Peer, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		srvs[i] = httptest.NewServer(swaps[i])
		roster[i] = fleet.Peer{ID: fmt.Sprintf("n%d", i+1), URL: srvs[i].URL}
	}
	nodes := make([]*fleet.Node, n)
	for i := range nodes {
		nodes[i], err = fleet.New(fleet.Options{
			Self:  roster[i],
			Peers: roster,
			Service: service.Options{
				Workers:    1, // one real simulation at a time per node
				QueueDepth: 256,
			},
			Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond},
		})
		if err != nil {
			break
		}
		swaps[i].h.Store(nodes[i].Handler())
		nodes[i].Start()
	}
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, node := range nodes {
			if node != nil {
				node.Close()
				node.Manager().Shutdown(ctx)
			}
		}
		for _, s := range srvs {
			s.Close()
		}
	}
	if err != nil {
		stop()
		return nil, nil, err
	}
	return stop, urls2(roster), nil
}

func urls2(roster []fleet.Peer) []string {
	out := make([]string, len(roster))
	for i, p := range roster {
		out[i] = p.URL
	}
	return out
}

// parseLevels parses the -levels ramp ("1,2,4") into client counts.
func parseLevels(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-levels entry %q is not a positive integer", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-levels is empty")
	}
	return out, nil
}

// swapHandler breaks the server/node construction cycle: listeners (and
// so URLs) must exist before the nodes that need the roster.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node not ready", http.StatusServiceUnavailable)
}
