package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/sim"
)

// deployment is one service stack under test, reached over loopback HTTP
// exactly as a remote client would reach it.
type deployment struct {
	urls    []string // entry points: one server, or one per fleet node
	roster  []fleet.Peer
	mgrs    []*service.Manager
	runs    *runLog
	journal string // journal file; "" when the stack keeps none
	closers []func()
}

// onClose registers teardown; close runs it in reverse order.
func (d *deployment) onClose(f func()) { d.closers = append(d.closers, f) }

func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

func shutdown(m *service.Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m.Shutdown(ctx)
}

// startServer brings up one rrs-serve-equivalent: default workers, a
// journal in a fresh directory under the workdir, and the HTTP API.
func startServer(p params) (*deployment, error) {
	dir, err := os.MkdirTemp(p.workdir, "serve-*")
	if err != nil {
		return nil, err
	}
	d := &deployment{runs: newRunLog(), journal: filepath.Join(dir, "jobs.journal")}
	d.onClose(func() { os.RemoveAll(dir) })
	j, _, err := service.OpenJournal(d.journal)
	if err != nil {
		d.close()
		return nil, err
	}
	d.onClose(func() { j.Close() })
	m := service.NewManager(service.Options{Journal: j, Run: d.runs.wrap(service.RunSpec)})
	d.onClose(func() { shutdown(m) })
	srv := httptest.NewServer(service.Handler(m))
	d.onClose(srv.Close)
	d.urls = []string{srv.URL}
	d.mgrs = []*service.Manager{m}
	return d, nil
}

// fleetNodes is the fleet workload's size: three nodes with one worker
// each, as `rrs-loadgen -local 3` runs them.
const fleetNodes = 3

// startFleetStack brings up a fleet on loopback and checks that every
// node routes to every other.
func startFleetStack(ctx context.Context) (*deployment, error) {
	d := &deployment{runs: newRunLog()}
	swaps := make([]*swapHandler, fleetNodes)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		srv := httptest.NewServer(swaps[i])
		d.onClose(srv.Close)
		d.roster = append(d.roster, fleet.Peer{ID: fmt.Sprintf("n%d", i+1), URL: srv.URL})
		d.urls = append(d.urls, srv.URL)
	}
	for i := range swaps {
		node, err := fleet.New(fleet.Options{
			Self:  d.roster[i],
			Peers: d.roster,
			Service: service.Options{
				Workers:    1,
				QueueDepth: 256,
				Run:        d.runs.wrap(service.RunSpec),
			},
			Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond},
		})
		if err != nil {
			d.close()
			return nil, err
		}
		d.onClose(func() {
			node.Close()
			shutdown(node.Manager())
		})
		swaps[i].h.Store(node.Handler())
		node.Start()
		d.mgrs = append(d.mgrs, node.Manager())
	}
	if err := d.waitRouted(ctx); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// waitRouted polls every node's /metrics until each counts all nodes as
// live.
func (d *deployment) waitRouted(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	for {
		ready := 0
		for _, u := range d.urls {
			if v, err := scrapeJSON(ctx, u); err == nil && v.Gauges["rrs_fleet_peers_live"] == fleetNodes {
				ready++
			}
		}
		if ready == len(d.urls) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet never routed every node: %w", ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// swapHandler lets a listener exist before the node that serves it: the
// roster needs every URL before any node can be built.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node not ready", http.StatusServiceUnavailable)
}

var metricsClient = &http.Client{Timeout: 10 * time.Second}

// scrapeJSON fetches one node's /metrics?format=json.
func scrapeJSON(ctx context.Context, url string) (service.JSONView, error) {
	var v service.JSONView
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics?format=json", nil)
	if err != nil {
		return v, err
	}
	resp, err := metricsClient.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// counters sums the named counters over every entry point.
func (d *deployment) counters(ctx context.Context, names ...string) (map[string]int64, error) {
	sum := map[string]int64{}
	for _, u := range d.urls {
		v, err := scrapeJSON(ctx, u)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			sum[n] += v.Counters[n]
		}
	}
	return sum, nil
}

// journalSize is the journal's current length in bytes (0 without one).
func (d *deployment) journalSize() int64 {
	if d.journal == "" {
		return 0
	}
	fi, err := os.Stat(d.journal)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// submitHitMicros times direct Manager.Submit calls of specs a manager
// already caches: the manager's cost of a cache hit without HTTP. It
// uses the first manager caching any of specs.
func submitHitMicros(mgrs []*service.Manager, specs []service.Spec, reps int) ([]float64, error) {
	var m *service.Manager
	var cached []service.Spec
	for _, m = range mgrs {
		for _, sp := range specs {
			if _, ok := m.CachedResult(sp.Hash()); ok {
				cached = append(cached, sp)
			}
		}
		if len(cached) > 0 {
			break
		}
	}
	if len(cached) == 0 {
		return nil, fmt.Errorf("no manager caches any of the specs")
	}
	var out []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		j, err := m.Submit(cached[i%len(cached)])
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if v := j.Snapshot(); !v.CacheHit {
			return nil, fmt.Errorf("direct submit of a cached spec missed the cache")
		}
		out = append(out, d.Seconds()*1e6)
	}
	return out, nil
}

// runLog times every Options.Run call: when each simulation started and
// how long it took, by spec hash.
type runLog struct {
	mu   sync.Mutex
	last map[string]runTiming // latest run of each hash
	all  []runTiming
}

type runTiming struct {
	start time.Time
	dur   time.Duration
}

func newRunLog() *runLog { return &runLog{last: map[string]runTiming{}} }

func (l *runLog) wrap(inner service.RunFunc) service.RunFunc {
	return func(ctx context.Context, spec service.Spec, progress func(done, total int64)) (sim.Result, error) {
		t0 := time.Now()
		res, err := inner(ctx, spec, progress)
		rt := runTiming{start: t0, dur: time.Since(t0)}
		h := spec.Hash()
		l.mu.Lock()
		l.last[h] = rt
		l.all = append(l.all, rt)
		l.mu.Unlock()
		return res, err
	}
}

func (l *runLog) get(hash string) (runTiming, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rt, ok := l.last[hash]
	return rt, ok
}

// since returns the durations (ms) of runs started at or after t.
func (l *runLog) since(t time.Time) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, rt := range l.all {
		if !rt.start.Before(t) {
			out = append(out, ms(rt.dur))
		}
	}
	return out
}
