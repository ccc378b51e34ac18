package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/sim"
)

// fastRetry keeps failover walks and pollers snappy under test.
var fastRetry = resilience.Policy{
	MaxAttempts: 2,
	BaseDelay:   time.Millisecond,
	MaxDelay:    5 * time.Millisecond,
}

// swapHandler lets a server exist before the node that serves it: the
// roster needs every URL up front, the node needs the roster, and the
// handler needs the node. Tests also re-Store it to wrap a live node's
// handler (e.g. with injected latency).
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) Store(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) Load() http.Handler {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.h
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.Load(); h != nil {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node not ready", http.StatusServiceUnavailable)
}

// tfNode is one fleet member under test.
type tfNode struct {
	node *Node
	srv  *httptest.Server
	swap *swapHandler  // the server's live handler slot, re-Store to wrap
	runs *atomic.Int64 // how many times this node's engine stub ran
}

// startFleet brings up n in-process fleet nodes named n1..nN, each with
// a 1-worker manager and a counting engine stub that returns
// Result{IPC: seed}. mod tweaks each node's Options before New.
// Background loops are NOT started — tests drive ProbeOnce/StealOnce
// deterministically.
func startFleet(t *testing.T, n int, mod func(i int, o *Options)) []*tfNode {
	t.Helper()
	swaps := make([]*swapHandler, n)
	roster := make([]Peer, n)
	nodes := make([]*tfNode, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		srv := httptest.NewServer(swaps[i])
		t.Cleanup(srv.Close)
		roster[i] = Peer{ID: fmt.Sprintf("n%d", i+1), URL: srv.URL}
		nodes[i] = &tfNode{srv: srv, swap: swaps[i], runs: &atomic.Int64{}}
	}
	for i := range nodes {
		runs := nodes[i].runs
		opts := Options{
			Self:  roster[i],
			Peers: roster,
			Service: service.Options{
				Workers:    1,
				QueueDepth: 16,
				Run: func(_ context.Context, spec service.Spec, progress func(int64, int64)) (sim.Result, error) {
					runs.Add(1)
					if progress != nil {
						progress(1, 1)
					}
					return sim.Result{IPC: float64(spec.Seed)}, nil
				},
			},
			HTTPClient:    &http.Client{Timeout: 5 * time.Second},
			Retry:         fastRetry,
			FanoutTimeout: time.Second,
			StealInterval: -1, // tests call StealOnce themselves
		}
		if mod != nil {
			mod(i, &opts)
		}
		node, err := New(opts)
		if err != nil {
			t.Fatalf("New(%s): %v", roster[i].ID, err)
		}
		nodes[i].node = node
		swaps[i].Store(node.Handler())
		t.Cleanup(func() {
			node.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			node.Manager().Shutdown(ctx)
		})
	}
	return nodes
}

// uniqueSpec returns a cheap valid spec whose seed controls its hash
// and its stubbed result.
func uniqueSpec(seed uint64) service.Spec {
	return service.Spec{Workloads: []string{"bzip2"}, Mitigation: service.MitRRS,
		Scale: 16, Epochs: 1, Seed: seed}
}

// fleetClient talks to one node's public fleet API.
func fleetClient(n *tfNode) *service.Client {
	c := service.NewClient(n.srv.URL, service.WithRetryPolicy(fastRetry))
	c.PollInterval = 5 * time.Millisecond
	return c
}

// localClient bypasses ring routing via the node's internal surface,
// forcing local acceptance.
func localClient(n *tfNode) *service.Client {
	c := service.NewClient(n.srv.URL+internalPrefix, service.WithRetryPolicy(fastRetry))
	c.PollInterval = 5 * time.Millisecond
	return c
}

// ownerIndex resolves which roster index owns spec.
func ownerIndex(t *testing.T, nodes []*tfNode, spec service.Spec) int {
	t.Helper()
	roster := make([]Peer, len(nodes))
	for i, n := range nodes {
		roster[i] = n.node.self
	}
	owner := rank(spec.Hash(), roster)[0]
	for i, n := range nodes {
		if n.node.self.ID == owner.ID {
			return i
		}
	}
	t.Fatalf("owner %s not in fleet", owner.ID)
	return -1
}

// specOwnedBy finds a seed whose spec the given roster index owns.
func specOwnedBy(t *testing.T, nodes []*tfNode, idx int, from uint64) service.Spec {
	t.Helper()
	for seed := from; seed < from+1000; seed++ {
		spec := uniqueSpec(seed)
		if ownerIndex(t, nodes, spec) == idx {
			return spec
		}
	}
	t.Fatalf("no seed in [%d,%d) owned by node %d", from, from+1000, idx)
	return service.Spec{}
}

func counter(n *tfNode, name string) int64 {
	return n.node.met.JSON().Counters[name]
}

func TestFleetSubmitAnywhereRunsOnOwner(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	spec := uniqueSpec(42)
	owner := ownerIndex(t, nodes, spec)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i, n := range nodes {
		v, err := fleetClient(n).Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit via node %d: %v", i, err)
		}
		if want := nodes[owner].node.self.ID + "."; !strings.HasPrefix(v.ID, want) {
			t.Fatalf("submit via node %d: job id %q not homed on owner %q", i, v.ID, want)
		}
		res, err := fleetClient(n).Result(ctx, v.ID)
		if err != nil {
			t.Fatalf("result via node %d: %v", i, err)
		}
		if res.IPC != 42 {
			t.Fatalf("result via node %d: IPC = %v, want 42", i, res.IPC)
		}
	}
	// Exactly one execution fleet-wide: the owner's, and the identical
	// resubmissions coalesced on its content hash.
	for i, n := range nodes {
		want := int64(0)
		if i == owner {
			want = 1
		}
		if got := n.runs.Load(); got != want {
			t.Fatalf("node %d ran %d times, want %d", i, got, want)
		}
	}
	for i, n := range nodes {
		if i != owner && counter(n, "rrs_fleet_forwards_total") == 0 {
			t.Fatalf("node %d forwarded nothing", i)
		}
	}
}

// TestFleetNonOwnerRejectsUnknownSpecField: a body carrying a field
// Spec does not have ("workers" here) fails the strict decode on the
// node that received it. The non-owner answers 400 itself instead of
// forwarding a spec it cannot decode, and nothing runs anywhere.
func TestFleetNonOwnerRejectsUnknownSpecField(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	spec := uniqueSpec(42)
	nonOwner := (ownerIndex(t, nodes, spec) + 1) % len(nodes)

	body := `{"workloads":["bzip2"],"mitigation":"rrs","scale":16,"epochs":1,"seed":42,"workers":2}`
	resp, err := http.Post(nodes[nonOwner].srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, `unknown field "workers"`) {
		t.Fatalf("status %d, error %q; want 400 naming the workers field", resp.StatusCode, eb.Error)
	}
	if got := counter(nodes[nonOwner], "rrs_fleet_forwards_total"); got != 0 {
		t.Fatalf("non-owner forwarded %d submissions, want 0", got)
	}
	for i, n := range nodes {
		if got := n.runs.Load(); got != 0 {
			t.Fatalf("node %d ran %d times, want 0", i, got)
		}
	}
}

func TestFleetFailoverWhenOwnerDies(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	spec := uniqueSpec(7)
	owner := ownerIndex(t, nodes, spec)
	// Kill the owner before anyone probes it: the optimistic detector
	// still routes to it, so the submit path must discover the death
	// itself and walk the failover order.
	nodes[owner].srv.Close()

	submitter := (owner + 1) % len(nodes)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := fleetClient(nodes[submitter]).Run(ctx, spec)
	if err != nil {
		t.Fatalf("run with dead owner: %v", err)
	}
	if res.IPC != 7 {
		t.Fatalf("IPC = %v, want 7", res.IPC)
	}
	if nodes[owner].runs.Load() != 0 {
		t.Fatalf("dead owner ran the job")
	}
	var total int64
	for _, n := range nodes {
		total += n.runs.Load()
	}
	if total != 1 {
		t.Fatalf("fleet ran the job %d times, want exactly 1", total)
	}
	if counter(nodes[submitter], "rrs_fleet_forward_failovers_total") == 0 {
		t.Fatalf("no failover counted on the submitter")
	}
}

func TestFleetRoutedPollProxyAndDelete(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	// A spec NOT owned by n1, submitted via n1: every poll must proxy.
	spec := specOwnedBy(t, nodes, 1, 100)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c := fleetClient(nodes[0])
	v, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !strings.HasPrefix(v.ID, "n2.") {
		t.Fatalf("job id %q not homed on n2", v.ID)
	}
	if _, err := c.Result(ctx, v.ID); err != nil {
		t.Fatalf("proxied result: %v", err)
	}
	got, err := c.Job(ctx, v.ID)
	if err != nil {
		t.Fatalf("proxied status: %v", err)
	}
	if got.State != service.StateDone {
		t.Fatalf("proxied job state = %s, want done", got.State)
	}
	if err := c.Cancel(ctx, v.ID); err != nil {
		t.Fatalf("proxied delete: %v", err)
	}
	if _, err := c.Job(ctx, v.ID); err == nil {
		t.Fatalf("job still resolvable after proxied delete")
	}
	if counter(nodes[0], "rrs_fleet_proxied_total") == 0 {
		t.Fatalf("nothing proxied")
	}

	// Home node gone: a proxied poll answers 404 so the client's
	// resubmit recovery can re-route the spec.
	spec2 := specOwnedBy(t, nodes, 1, 200)
	v2, err := c.Submit(ctx, spec2)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	nodes[1].srv.Close()
	_, err = c.Job(ctx, v2.ID)
	apiErr, ok := asAPIError(err)
	if !ok || apiErr.Status != http.StatusNotFound {
		t.Fatalf("poll with dead home = %v, want 404", err)
	}
	if counter(nodes[0], "rrs_fleet_proxy_misses_total") == 0 {
		t.Fatalf("proxy miss not counted")
	}
}

func asAPIError(err error) (*service.APIError, bool) {
	var apiErr *service.APIError
	ok := errors.As(err, &apiErr)
	return apiErr, ok
}

func TestFleetWideCacheHit(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	spec := uniqueSpec(9)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Run to completion on n1, bypassing the ring so the cache entry is
	// guaranteed to live there.
	if _, err := localClient(nodes[0]).Run(ctx, spec); err != nil {
		t.Fatalf("priming run on n1: %v", err)
	}
	if nodes[0].runs.Load() != 1 {
		t.Fatalf("n1 ran %d times priming, want 1", nodes[0].runs.Load())
	}

	// The same spec submitted to n2 (again forced local) must be
	// answered by n1's cache through the fan-out — n2's engine must not
	// run.
	res, err := localClient(nodes[1]).Run(ctx, spec)
	if err != nil {
		t.Fatalf("run on n2: %v", err)
	}
	if res.IPC != 9 {
		t.Fatalf("IPC = %v, want 9", res.IPC)
	}
	if got := nodes[1].runs.Load(); got != 0 {
		t.Fatalf("n2 ran %d times, want 0 (fleet cache hit)", got)
	}
	if counter(nodes[1], "rrs_fleet_cache_fanout_hits_total") == 0 {
		t.Fatalf("fan-out hit not counted")
	}
}

func TestFleetDrainGatesReadyzAndRouting(t *testing.T) {
	nodes := startFleet(t, 2, func(i int, o *Options) {
		o.Fall, o.Rise = 1, 1
	})
	// A spec n1 owns, so routing away from it is observable.
	spec := specOwnedBy(t, nodes, 0, 300)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	nodes[0].node.StartDrain()

	// /readyz flips immediately; /healthz stays green (the node is
	// alive, finishing its backlog).
	resp, err := http.Get(nodes[0].srv.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining /readyz missing Retry-After")
	}
	if err := localClient(nodes[0]).Health(ctx); err != nil {
		t.Fatalf("draining /healthz: %v", err)
	}

	// One probe round is enough at fall=1 for n2 to evict n1.
	nodes[1].node.ProbeOnce(ctx)
	if len(nodes[1].node.det.Routable()) != 0 {
		t.Fatalf("n2 still routes to draining n1")
	}

	// Submitting n1's spec via n2 must run on n2 now.
	if _, err := fleetClient(nodes[1]).Run(ctx, spec); err != nil {
		t.Fatalf("run via n2: %v", err)
	}
	if nodes[0].runs.Load() != 0 || nodes[1].runs.Load() != 1 {
		t.Fatalf("runs = [%d %d], want [0 1]", nodes[0].runs.Load(), nodes[1].runs.Load())
	}

	// Submitting via the draining n1 itself still succeeds: n1 excludes
	// itself from its ring and forwards to n2.
	spec2 := specOwnedBy(t, nodes, 0, 400)
	if _, err := fleetClient(nodes[0]).Run(ctx, spec2); err != nil {
		t.Fatalf("run via draining n1: %v", err)
	}
	if nodes[0].runs.Load() != 0 {
		t.Fatalf("draining n1 ran a job")
	}
}

func TestFleetAdmissionShedding(t *testing.T) {
	gate := make(chan struct{})
	nodes := startFleet(t, 1, func(i int, o *Options) {
		o.Service.AdmissionWatermark = 1
		o.Service.Run = func(_ context.Context, spec service.Spec, _ func(int64, int64)) (sim.Result, error) {
			<-gate
			return sim.Result{IPC: float64(spec.Seed)}, nil
		}
	})
	defer close(gate)
	n := nodes[0]

	post := func(seed uint64) *http.Response {
		body, _ := json.Marshal(uniqueSpec(seed))
		resp, err := http.Post(n.srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post seed %d: %v", seed, err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// First job occupies the single worker...
	if resp := post(1); resp.StatusCode != http.StatusCreated {
		t.Fatalf("job 1 status = %d, want 201", resp.StatusCode)
	}
	waitFor(t, func() bool { _, busy, _ := n.node.mgr.Load(); return busy == 1 })
	// ...second fills the queue to the watermark...
	if resp := post(2); resp.StatusCode != http.StatusCreated {
		t.Fatalf("job 2 status = %d, want 201", resp.StatusCode)
	}
	// ...third sheds with a backoff hint instead of deepening the queue.
	resp := post(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3 status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed response missing Retry-After")
	}
	if counter(n, "rrs_jobs_shed_total") != 1 {
		t.Fatalf("rrs_jobs_shed_total = %d, want 1", counter(n, "rrs_jobs_shed_total"))
	}

	// The overload also shows on /readyz, so peers stop routing here.
	r2, err := http.Get(n.srv.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded /readyz = %d, want 503", r2.StatusCode)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached in 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
