package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/sim"
)

// The interactive traffic of serve-mixed and fleet-3node is the one
// `make loadgen-smoke` drives (rrs-loadgen -cache-fraction 0.25
// -jobs-per-client 4): closed-loop clients, each job a POST and result
// polls every 10 ms, the first job of every four one hot spec and the
// other three fresh seeds. The job is rrs-loadgen's default, bzip2 under
// RRS for one epoch, at scale 1024 instead of 16, so that a job takes
// tens of milliseconds rather than a second and a run holds hundreds.
const (
	clients      = 2   // closed-loop clients; one per CPU of the reference host
	jobsPerCycle = 4   // per client: one hot job, then three cold ones
	scrapeEvery  = 100 // requests between /metrics scrapes
	pollInterval = 10 * time.Millisecond
	coldChecks   = 4 // cold results per phase re-checked against a direct sim.Run
)

// fleetCounters are the per-node counters fleet-3node sums.
var fleetCounters = []string{
	"rrs_fleet_forwards_total", "rrs_fleet_proxied_total",
	"rrs_fleet_cache_fanout_checks_total", "rrs_fleet_cache_fanout_hits_total",
	"rrs_fleet_replicated_total", "rrs_fleet_steals_total",
}

// mixedBench is serve-mixed, or fleet-3node when its deployment has a
// roster.
type mixedBench struct {
	dep *deployment
	p   params
	hot service.Spec
	// hotRef is the hot spec's result from a direct sim.Run, as JSON:
	// every cache hit must return exactly these bytes.
	hotRef []byte
	cold   atomic.Uint64 // cold jobs issued so far
}

func startServe(ctx context.Context, p params) (instance, error) {
	dep, err := startServer(p)
	if err != nil {
		return nil, err
	}
	return warmMixed(ctx, &mixedBench{dep: dep, p: p})
}

func startFleet(ctx context.Context, p params) (instance, error) {
	dep, err := startFleetStack(ctx)
	if err != nil {
		return nil, err
	}
	return warmMixed(ctx, &mixedBench{dep: dep, p: p})
}

// warmMixed picks the hot spec and computes its result through the
// service, so it is cached before any request is timed.
func warmMixed(ctx context.Context, b *mixedBench) (*mixedBench, error) {
	b.hot = b.pickHot()
	if _, err := b.client(0).Run(ctx, b.hot); err != nil {
		b.close()
		return nil, fmt.Errorf("warming the hot spec: %w", err)
	}
	return b, nil
}

// spec is the served job with seed index i: the hot spec takes a low
// index, cold jobs count up from 1<<19, all offset by the run's seed.
func (b *mixedBench) spec(i uint64) service.Spec {
	return service.Spec{Workloads: []string{"bzip2"}, Mitigation: service.MitRRS,
		Scale: b.p.size.serveScale, Epochs: 1, Seed: b.p.seed<<20 | i}
}

// pickHot returns the hot spec: the first seed, except that on a fleet
// the first seed the first node owns. The first client enters there and
// the second one node over, so for every seed half the hits are served
// by their owner and half are forwarded once.
func (b *mixedBench) pickHot() service.Spec {
	for i := uint64(0); ; i++ {
		sp := b.spec(i)
		owner, ok := fleet.Owner(sp.Hash(), b.dep.roster)
		if !ok || owner.ID == b.dep.roster[0].ID {
			return sp
		}
	}
}

func (b *mixedBench) coldSpec() service.Spec { return b.spec(1<<19 + b.cold.Add(1)) }

func (b *mixedBench) client(i int) *service.Client {
	c := service.NewClient(b.dep.urls[i%len(b.dep.urls)])
	c.PollInterval = pollInterval
	return c
}

func (b *mixedBench) specs() []service.Spec { return []service.Spec{b.spec(1 << 19)} }

func (b *mixedBench) close() { b.dep.close() }

// opRecord is one timed request.
type opRecord struct {
	hot    bool
	owner  bool // fleet: the client's entry node owns the spec
	hash   string
	start  time.Time
	submit time.Duration // POST
	total  time.Duration // POST until the result is in hand
}

// clientRun is what one client saw in one drive.
type clientRun struct {
	attempted int
	ops       []opRecord // the requests that succeeded
	scrapes   []float64  // ms
	colds     int        // cold jobs submitted (journaled)
	failures  []string
	checks    []coldCheck
}

type coldCheck struct {
	spec service.Spec
	got  []byte
}

func (b *mixedBench) measure(ctx context.Context, traced bool, budget time.Duration) (*phase, error) {
	if b.hotRef == nil {
		ref, err := directJSON(b.hot)
		if err != nil {
			return nil, err
		}
		b.hotRef = ref
	}
	ph := newPhase()
	journal0 := b.dep.journalSize()
	warm := b.drive(ctx, b.p.size.warmOps, time.Time{}, false)
	before, err := b.dep.counters(ctx, fleetCounters...)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var until time.Time
	if b.p.size.maxOps == 0 {
		until = start.Add(budget)
	}
	runs := b.drive(ctx, b.p.size.maxOps, until, true)
	wall := time.Since(start)
	after, err := b.dep.counters(ctx, fleetCounters...)
	if err != nil {
		return nil, err
	}

	var ops []opRecord
	var scrapes []float64
	colds := 0
	var checks []coldCheck
	for _, r := range append(warm, runs...) {
		colds += r.colds
		ph.attempted += r.attempted
		for _, f := range r.failures {
			ph.fail("%s", f)
		}
	}
	for _, r := range runs {
		ops = append(ops, r.ops...)
		scrapes = append(scrapes, r.scrapes...)
		checks = append(checks, r.checks...)
	}
	for _, op := range ops {
		ph.latencies = append(ph.latencies, ms(op.total))
	}
	for _, c := range checks {
		want, err := directJSON(c.spec)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(c.got, want) {
			ph.fail("cold job seed %d: served result differs from a direct sim.Run", c.spec.Seed)
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	ph.rate = sample{Value: float64(len(ops)) / wall.Seconds(), N: len(ops)}

	var hit, cold, hitSubmit, coldSubmit, overhead, queueWait, pollWait, ownerHit, otherHit []float64
	nCold := 0
	for _, op := range ops {
		total := ms(op.total)
		if op.hot {
			hit = append(hit, total)
			hitSubmit = append(hitSubmit, ms(op.submit))
			if op.owner {
				ownerHit = append(ownerHit, total)
			} else {
				otherHit = append(otherHit, total)
			}
			continue
		}
		nCold++
		cold = append(cold, total)
		coldSubmit = append(coldSubmit, ms(op.submit))
		pollWait = append(pollWait, ms(op.total-op.submit))
		if rt, ok := b.dep.runs.get(op.hash); ok {
			overhead = append(overhead, ms(op.total-rt.dur))
			queueWait = append(queueWait, ms(rt.start.Sub(op.start)))
		}
	}
	l := ph.layer
	l["hit_p50_ms"] = dist(hit, 0.50)
	l["hit_p99_ms"] = dist(hit, 0.99)
	l["cold_p50_ms"] = dist(cold, 0.50)
	l["cold_p99_ms"] = dist(cold, 0.99)
	l["cold_overhead_p50_ms"] = dist(overhead, 0.5)
	l["http.submit_hit_ms_p50"] = dist(hitSubmit, 0.5)
	l["http.submit_cold_ms_p50"] = dist(coldSubmit, 0.5)
	l["manager.queue_wait_ms_p50"] = dist(queueWait, 0.5)
	l["client.poll_wait_ms_p50"] = dist(pollWait, 0.5)
	l["metrics.scrape_ms_p50"] = dist(scrapes, 0.5)
	l["sim.run_ms_p50"] = dist(b.dep.runs.since(start), 0.5)
	if b.dep.journal != "" && colds > 0 {
		l["journal.bytes_per_job"] = sample{Value: float64(b.dep.journalSize()-journal0) / float64(colds), N: colds}
	}
	us, err := submitHitMicros(b.dep.mgrs, []service.Spec{b.hot}, 200)
	if err != nil {
		return nil, err
	}
	l["manager.submit_hit_us_p50"] = dist(us, 0.5)
	if len(b.dep.roster) > 0 {
		l["fleet.hit_owner_ms_p50"] = dist(ownerHit, 0.5)
		l["fleet.hit_nonowner_ms_p50"] = dist(otherHit, 0.5)
		delta := func(name string) float64 { return float64(after[name] - before[name]) }
		perOp := func(name string, n int) sample { return sample{Value: delta(name) / float64(n), N: n} }
		l["fleet.forwards_per_op"] = perOp("rrs_fleet_forwards_total", len(ops))
		l["fleet.proxied_per_op"] = perOp("rrs_fleet_proxied_total", len(ops))
		if nCold > 0 {
			l["fleet.fanout_checks_per_cold"] = perOp("rrs_fleet_cache_fanout_checks_total", nCold)
			l["fleet.fanout_hits_per_cold"] = perOp("rrs_fleet_cache_fanout_hits_total", nCold)
			l["fleet.replicated_per_cold"] = perOp("rrs_fleet_replicated_total", nCold)
		}
		l["fleet.steals"] = sample{Value: delta("rrs_fleet_steals_total"), N: 1}
	}
	return ph, nil
}

// drive runs the closed-loop clients until each has made maxOps requests
// (0 = no limit) or until the deadline passes (zero = none). A measured
// drive also scrapes /metrics every scrapeEvery requests.
func (b *mixedBench) drive(ctx context.Context, maxOps int, until time.Time, measured bool) []*clientRun {
	var wg sync.WaitGroup
	var issued atomic.Int64
	runs := make([]*clientRun, clients)
	for c := range runs {
		runs[c] = &clientRun{}
		wg.Add(1)
		go func(c int, r *clientRun) {
			defer wg.Done()
			cl := b.client(c)
			entry := b.dep.urls[c%len(b.dep.urls)]
			for i := 0; (maxOps == 0 || i < maxOps) && ctx.Err() == nil; i++ {
				if !until.IsZero() && !time.Now().Before(until) {
					return
				}
				if measured && issued.Add(1)%scrapeEvery == 0 {
					if d, err := scrapeText(ctx, entry); err != nil {
						r.failures = append(r.failures, err.Error())
					} else {
						r.scrapes = append(r.scrapes, d)
					}
				}
				sp, ref := b.hot, b.hotRef
				if i%jobsPerCycle != 0 {
					sp, ref = b.coldSpec(), nil
					r.colds++
				}
				r.attempted++
				op, err := request(ctx, cl, sp, ref, r)
				if err != nil {
					r.failures = append(r.failures, err.Error())
					continue
				}
				if owner, ok := fleet.Owner(op.hash, b.dep.roster); ok {
					op.owner = owner.URL == entry
				}
				r.ops = append(r.ops, op)
			}
		}(c, runs[c])
	}
	wg.Wait()
	return runs
}

// request is one timed POST → result exchange, checked: a hot spec's
// result must equal ref byte for byte, and a cold one must be plausible
// (the first few are kept in r for a full check after the phase).
func request(ctx context.Context, cl *service.Client, sp service.Spec, ref []byte, r *clientRun) (opRecord, error) {
	op := opRecord{hot: ref != nil, hash: sp.Hash(), start: time.Now()}
	v, err := cl.Submit(ctx, sp)
	op.submit = time.Since(op.start)
	if err != nil {
		return op, fmt.Errorf("seed %d: %w", sp.Seed, err)
	}
	res, err := cl.Result(ctx, v.ID)
	op.total = time.Since(op.start)
	if err != nil {
		return op, fmt.Errorf("seed %d: %w", sp.Seed, err)
	}
	got, err := json.Marshal(res)
	switch {
	case err != nil:
		return op, err
	case op.hot && !bytes.Equal(got, ref):
		return op, fmt.Errorf("hot seed %d: cache hit differs from a direct sim.Run", sp.Seed)
	case !op.hot && (res.Accesses == 0 || res.Epochs != 1):
		return op, fmt.Errorf("cold seed %d: implausible result %+v", sp.Seed, res.MemStats)
	case !op.hot && len(r.checks) < coldChecks/clients:
		r.checks = append(r.checks, coldCheck{sp, got})
	}
	return op, nil
}

// scrapeText times one Prometheus-text GET of /metrics (ms).
func scrapeText(ctx context.Context, url string) (float64, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := metricsClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	return ms(time.Since(t0)), nil
}

// directJSON runs sp in-process with sim.Run and returns the result as
// the service would serve it.
func directJSON(sp service.Spec) ([]byte, error) {
	opts, err := sp.Options()
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(opts)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}
