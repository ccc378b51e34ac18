package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/sim"
)

// hostmap is a virtual-host transport for a whole fleet: every request
// to http://<host>/ is rewritten onto that host's current backend URL.
// Setting a host's backend to "" simulates the machine being off the
// network (connection refused), and re-pointing it models a process
// restarting on the same DNS name — which is exactly how a fleet roster
// outlives its members.
type hostmap struct {
	mu      sync.Mutex
	targets map[string]string
}

func newHostmap() *hostmap { return &hostmap{targets: make(map[string]string)} }

func (h *hostmap) set(host, base string) {
	h.mu.Lock()
	h.targets[host] = base
	h.mu.Unlock()
}

func (h *hostmap) RoundTrip(req *http.Request) (*http.Response, error) {
	h.mu.Lock()
	base := h.targets[req.URL.Host]
	h.mu.Unlock()
	if base == "" {
		return nil, fmt.Errorf("chaos: host %s is down", req.URL.Host)
	}
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	r2 := req.Clone(req.Context())
	r2.URL.Scheme = u.Scheme
	r2.URL.Host = u.Host
	return http.DefaultTransport.RoundTrip(r2)
}

// fleetNode bundles one member's process-level pieces, mirroring what
// cmd/rrs-serve wires together: journal, manager, fleet node, listener.
type fleetNode struct {
	self    fleet.Peer
	journal *service.Journal
	replay  *service.Replayed
	node    *fleet.Node
	mgr     *service.Manager
	srv     *httptest.Server
}

// bootFleetNode is one process start: replay the journal, join the
// roster, listen, and point the node's virtual host at the listener.
// mod tweaks the options before fleet.New (nil keeps the stock shape).
func bootFleetNode(t *testing.T, hm *hostmap, roster []fleet.Peer, self fleet.Peer, jpath string, mod func(o *fleet.Options)) *fleetNode {
	t.Helper()
	j, rep, err := service.OpenJournal(jpath)
	if err != nil {
		t.Fatalf("%s: journal: %v", self.ID, err)
	}
	opts := fleet.Options{
		Self:    self,
		Peers:   roster,
		Service: service.Options{Workers: 1, QueueDepth: 64, Journal: j},
		HTTPClient: &http.Client{
			Transport: hm,
			Timeout:   10 * time.Second,
		},
		Retry:         resilience.Policy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		ProbeInterval: 50 * time.Millisecond,
	}
	if mod != nil {
		mod(&opts)
	}
	node, err := fleet.New(opts)
	if err != nil {
		t.Fatalf("%s: fleet.New: %v", self.ID, err)
	}
	mgr := node.Manager()
	if err := mgr.Restore(rep); err != nil {
		t.Fatalf("%s: restore: %v", self.ID, err)
	}
	srv := httptest.NewServer(node.Handler())
	hm.set(hostOf(t, self.URL), srv.URL)
	node.Start()
	return &fleetNode{self: self, journal: j, replay: rep, node: node, mgr: mgr, srv: srv}
}

// kill is kill -9: the WAL stops cold first, then the listener vanishes
// and the host drops off the network. The dying process's in-memory
// wind-down below must not leak terminal states it never persisted.
func (n *fleetNode) kill(t *testing.T, hm *hostmap) {
	t.Helper()
	n.journal.Close()
	n.srv.CloseClientConnections()
	n.srv.Close()
	hm.set(hostOf(t, n.self.URL), "")
	n.node.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n.mgr.Shutdown(ctx)
}

func (n *fleetNode) stop(t *testing.T) {
	t.Helper()
	n.node.Close()
	n.srv.Close()
	shutdownManager(t, n.mgr)
	n.journal.Close()
}

func hostOf(t *testing.T, raw string) string {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatalf("hostOf(%q): %v", raw, err)
	}
	return u.Host
}

func fleetSpec(seed uint64) service.Spec {
	return service.Spec{Workloads: []string{"bzip2"}, Mitigation: service.MitRRS,
		Scale: 16, Epochs: 1, Seed: seed}
}

func fleetCounter(n *fleetNode, name string) int64 {
	return n.mgr.Metrics().JSON().Counters[name]
}

// TestFleetSoakKillMinusNine is the fleet-mode companion to the
// single-node soak: a 9-job sweep of real simulations driven through
// three fleet members via a light fault-injecting transport, with one
// member kill -9'd mid-sweep and restarted from its journal on the same
// roster name. Every seed must be delivered exactly once, bit-identical
// to a reference service.RunSpec run, and the fleet-wide result cache
// must answer a node that never ran a spec from a peer that did.
func TestFleetSoakKillMinusNine(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	sweep, budget := uint64(9), 150*time.Second
	if raceEnabled {
		sweep, budget = 6, 8*time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	// Reference results from the plain engine: the fleet must reproduce
	// these byte-for-byte regardless of which nodes ran what, how often
	// a job re-ran after the crash, or who answered from cache.
	ref := make(map[uint64][]byte, sweep)
	for seed := uint64(1); seed <= sweep; seed++ {
		res, err := service.RunSpec(ctx, fleetSpec(seed), nil)
		if err != nil {
			t.Fatalf("reference seed %d: %v", seed, err)
		}
		// The manager folds each run's timeline into its metrics and
		// serves the result without it; normalize the reference the same
		// way so the comparison is over the simulation payload.
		res.Timeline = nil
		ref[seed] = mustJSON(t, res)
	}

	dir := t.TempDir()
	roster := []fleet.Peer{
		{ID: "n1", URL: "http://n1.rrs-fleet.invalid"},
		{ID: "n2", URL: "http://n2.rrs-fleet.invalid"},
		{ID: "n3", URL: "http://n3.rrs-fleet.invalid"},
	}
	hm := newHostmap()
	// Replication off: this soak pins the pre-replication failover story —
	// a killed node's work is genuinely re-run and must still be delivered
	// exactly once, bit-identical. The replica soak covers the
	// zero-re-run path.
	noReplicas := func(o *fleet.Options) {
		o.ReplicationQueue = -1
		o.RepairInterval = -1
	}
	nodes := make([]*fleetNode, len(roster))
	for i, p := range roster {
		nodes[i] = bootFleetNode(t, hm, roster, p,
			filepath.Join(dir, p.ID+".journal"), noReplicas)
		if len(nodes[i].replay.Jobs) != 0 {
			t.Fatalf("%s: fresh journal replayed %d jobs", p.ID, len(nodes[i].replay.Jobs))
		}
	}

	// Clients pin to one entry node each and ride out the crash window
	// on unbounded retries; the wire between them and the fleet drops
	// and 503s a slice of requests on a seeded schedule.
	faults := NewTransport(Faults{
		Seed:      31,
		DropRate:  0.05,
		FailRate:  0.05,
		DelayRate: 0.10,
		MaxDelay:  2 * time.Millisecond,
	}, hm)
	clients := make([]*service.Client, len(roster))
	for i, p := range roster {
		clients[i] = service.NewClient(p.URL,
			service.WithHTTPClient(&http.Client{Transport: faults}),
			service.WithRetryPolicy(resilience.Policy{
				MaxAttempts: -1,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    100 * time.Millisecond,
			}))
		clients[i].PollInterval = 10 * time.Millisecond
	}

	type outcome struct {
		seed uint64
		res  sim.Result
		err  error
	}
	results := make(chan outcome, sweep)
	for seed := uint64(1); seed <= sweep; seed++ {
		go func(seed uint64) {
			res, err := clients[int(seed)%len(clients)].Run(ctx, fleetSpec(seed))
			results <- outcome{seed: seed, res: res, err: err}
		}(seed)
	}

	var jobsAtCrash, pendingAtCrash int
	killed := false
	got := make(map[uint64][]byte, sweep)
	for uint64(len(got)) < sweep {
		select {
		case <-ctx.Done():
			t.Fatalf("fleet soak timed out with %d/%d results", len(got), sweep)
		case o := <-results:
			if o.err != nil {
				t.Fatalf("seed %d: %v", o.seed, o.err)
			}
			if _, dup := got[o.seed]; dup {
				t.Fatalf("seed %d delivered twice", o.seed)
			}
			got[o.seed] = mustJSON(t, o.res)
		}

		if len(got) == 2 && !killed {
			killed = true
			// kill -9 n1 mid-sweep, then restart it from its journal on
			// the same roster name. While it is dark, the survivors'
			// failure detectors shrink the ring around it, proxied polls
			// for its jobs 404 into the clients' resubmit recovery, and
			// after the restart its journal replays every accepted job
			// that never reached a terminal record.
			nodes[0].kill(t, hm)
			// Keep n1 dark until both survivors' failure detectors have
			// evicted it — the sweep must visibly run on a shrunken ring
			// before the replacement process comes up.
			evicted := time.Now().Add(30 * time.Second)
			for fleetCounter(nodes[1], "rrs_fleet_peer_flaps_total") == 0 ||
				fleetCounter(nodes[2], "rrs_fleet_peer_flaps_total") == 0 {
				if time.Now().After(evicted) {
					t.Fatal("survivors never evicted the killed node")
				}
				time.Sleep(5 * time.Millisecond)
			}
			nodes[0] = bootFleetNode(t, hm, roster, roster[0],
				filepath.Join(dir, roster[0].ID+".journal"), noReplicas)
			jobsAtCrash = len(nodes[0].replay.Jobs)
			pendingAtCrash = nodes[0].replay.Pending
		}
	}
	for _, n := range nodes {
		defer n.stop(t)
	}

	for seed := uint64(1); seed <= sweep; seed++ {
		if !bytes.Equal(got[seed], ref[seed]) {
			t.Errorf("seed %d: fleet result diverged from reference\n fleet: %s\n   ref: %s",
				seed, got[seed], ref[seed])
		}
	}
	if !killed {
		t.Fatal("crash window never opened")
	}
	if jobsAtCrash == 0 {
		t.Error("restarted node replayed no journal records; the crash predates any accepted work")
	}
	t.Logf("n1 journal at crash: %d jobs, %d pending", jobsAtCrash, pendingAtCrash)

	// The fleet actually fleeted: submissions crossed nodes and the
	// survivors saw n1's death (and rebirth) as routability flips.
	var forwards, proxied, flaps int64
	for _, n := range nodes {
		forwards += fleetCounter(n, "rrs_fleet_forwards_total")
		proxied += fleetCounter(n, "rrs_fleet_proxied_total")
	}
	for _, n := range nodes[1:] {
		flaps += fleetCounter(n, "rrs_fleet_peer_flaps_total")
	}
	if forwards == 0 {
		t.Error("no submissions were forwarded to their ring owner")
	}
	if proxied == 0 {
		t.Error("no job polls were proxied to their home node")
	}
	if flaps == 0 {
		t.Error("survivors never saw n1 flap despite the kill/restart")
	}

	// Fleet-wide cache: run a fresh spec on n2 only (through its local,
	// unrouted API), then submit the same spec to n3's local API. n3 has
	// never run it, so its pre-run fan-out must find n2's cached result
	// instead of simulating again.
	localSpec := fleetSpec(100)
	local2 := service.NewClient(roster[1].URL+"/v1/fleet/local",
		service.WithHTTPClient(&http.Client{Transport: hm}))
	local3 := service.NewClient(roster[2].URL+"/v1/fleet/local",
		service.WithHTTPClient(&http.Client{Transport: hm}))
	local2.PollInterval = 10 * time.Millisecond
	local3.PollInterval = 10 * time.Millisecond
	first, err := local2.Run(ctx, localSpec)
	if err != nil {
		t.Fatalf("priming run on n2: %v", err)
	}
	hitsBefore := fleetCounter(nodes[2], "rrs_fleet_cache_fanout_hits_total")
	second, err := local3.Run(ctx, localSpec)
	if err != nil {
		t.Fatalf("cached run on n3: %v", err)
	}
	if !bytes.Equal(mustJSON(t, first), mustJSON(t, second)) {
		t.Error("n3's fleet-cache answer differs from n2's original result")
	}
	if hits := fleetCounter(nodes[2], "rrs_fleet_cache_fanout_hits_total"); hits != hitsBefore+1 {
		t.Errorf("n3 fan-out hits = %d, want %d (one hit for the primed spec)",
			hits, hitsBefore+1)
	}

	reqs, dropped, failed, _ := faults.Stats()
	if dropped+failed == 0 {
		t.Errorf("no network faults injected across %d client requests", reqs)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}
