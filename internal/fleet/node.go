package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/sim"
)

// Options configures one fleet node. Self must appear in Peers; every
// node of a fleet is started with the same roster (order irrelevant)
// and decides ownership locally from it.
type Options struct {
	// Self is this node's roster entry. Its ID becomes the job-id
	// prefix (service.Options.NodeID).
	Self Peer
	// Peers is the full fleet roster, Self included.
	Peers []Peer
	// Service configures the node's local manager. Run is wrapped with
	// the fleet-wide cache fan-out (nil falls through to the built-in
	// engine), NodeID is forced to Self.ID, and a nil Metrics gets a
	// fresh registry shared with the fleet counters.
	Service service.Options
	// HTTPClient carries all peer traffic — forwards, probes, proxies,
	// routed sweep children. Tests inject fault-injecting or retargeting
	// transports here. nil uses a 30 s-timeout default client.
	HTTPClient *http.Client
	// Retry shapes forward and replica-push retry loops (resilience
	// defaults apply to the zero value).
	Retry resilience.Policy

	// ProbeInterval is the failure-detector cadence (default 500 ms).
	ProbeInterval time.Duration

	// ReplicationQueue bounds the asynchronous result-replication queue
	// (default 128; negative disables replication). When the queue is
	// full new results are dropped from replication — never from the
	// local cache/journal — and counted in rrs_fleet_replica_drops_total;
	// the repair loop re-establishes their replicas later.
	ReplicationQueue int
	// RepairInterval is the anti-entropy cadence (default 30 s; negative
	// disables the loop). Each tick verifies a batch of locally held
	// results still have a live replica, re-pushing any that do not.
	RepairInterval time.Duration
}

const (
	// probeTimeout bounds one probe round trip, and one attempt to
	// submit a sweep child to its owner.
	probeTimeout = 2 * time.Second
	// rise and fall are the detector's hysteresis thresholds:
	// consecutive probe successes to rejoin the ring and failures to
	// leave it.
	rise, fall = 2, 3
	// fanoutTimeout bounds the fleet-wide cache lookup before a run. The
	// lookup is best-effort: a miss or timeout just runs the simulation.
	fanoutTimeout = time.Second
	// fanoutPeerTimeout bounds each peer fetch inside the fan-out, so
	// one hung peer burns its own slice of the budget instead of
	// stalling every cold submit for the full fanoutTimeout.
	fanoutPeerTimeout = 250 * time.Millisecond
	// repairBatch is how many held results one repair tick checks — the
	// loop is deliberately low-rate.
	repairBatch = 16
)

func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.ReplicationQueue == 0 {
		o.ReplicationQueue = 128
	}
	if o.RepairInterval == 0 {
		o.RepairInterval = 30 * time.Second
	}
	return o
}

// internalPrefix mounts the unrouted local service API. Peer traffic
// (forwarded submits, proxied polls, probes) targets it so a forwarded
// request is handled by the receiving node, never re-forwarded — loop
// prevention is structural, not a header convention.
const internalPrefix = "/v1/fleet/local"

// Node is one fleet member: a local manager plus the peer layer —
// ring routing, failure detection, gossiped membership, forwarding,
// sweep-child routing, cache fan-out, result replication and
// anti-entropy repair.
type Node struct {
	opts  Options
	self  Peer
	mem   *membership
	mgr   *service.Manager
	local http.Handler // the plain single-node API over mgr
	met   *service.Metrics
	det   *detector
	hc    *http.Client

	// clients are retrying service.Clients per remote peer, targeting
	// the peer's internal (unrouted) API surface. Built lazily because
	// membership is dynamic: a peer learned through gossip gets a
	// client on first use, and a peer that rejoined on a new address
	// gets a fresh one.
	clientsMu sync.Mutex
	clients   map[string]clientEntry

	// repq is the bounded replication queue; nil when replication is
	// disabled. Workers enqueue non-blocking, the replicator goroutine
	// (Start) drains it.
	repq chan replicaTask

	mu        sync.Mutex
	repairIdx int

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type clientEntry struct {
	url string
	c   *service.Client
}

// New builds a node and its manager. The caller owns journal replay
// (node.Manager().Restore) and must Start the background loops once
// the node's listener is up.
func New(opts Options) (*Node, error) {
	opts = opts.withDefaults()
	if opts.Self.ID == "" || opts.Self.URL == "" {
		return nil, fmt.Errorf("fleet: Self needs an ID and a URL")
	}
	seen := make(map[string]bool, len(opts.Peers))
	selfInRoster := false
	for _, p := range opts.Peers {
		if p.ID == "" || p.URL == "" {
			return nil, fmt.Errorf("fleet: peer %+v needs an ID and a URL", p)
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("fleet: duplicate peer id %q", p.ID)
		}
		seen[p.ID] = true
		if p.ID == opts.Self.ID {
			selfInRoster = true
		}
	}
	if !selfInRoster {
		return nil, fmt.Errorf("fleet: Self %q not in the peer roster", opts.Self.ID)
	}

	n := &Node{
		opts:    opts,
		self:    opts.Self,
		mem:     newMembership(opts.Self.ID, opts.Peers),
		hc:      opts.HTTPClient,
		clients: make(map[string]clientEntry, len(opts.Peers)),
		stop:    make(chan struct{}),
	}
	if opts.ReplicationQueue > 0 {
		n.repq = make(chan replicaTask, opts.ReplicationQueue)
	}

	so := opts.Service
	so.NodeID = opts.Self.ID
	if so.Metrics == nil {
		so.Metrics = service.NewMetrics()
	}
	n.met = so.Metrics
	inner := so.Run
	if inner == nil {
		inner = service.RunSpec
	}
	so.Run = n.fanoutRun(inner)
	// Sweep children route to their ring owner by their own content hash
	// as the feeder links them, so one sweep spreads fleet-wide.
	so.RouteChild = n.routeChild
	// Every locally computed result feeds the replication queue the
	// moment it enters the result store.
	userOnResult := so.OnResult
	so.OnResult = func(hash string, res sim.Result) {
		if userOnResult != nil {
			userOnResult(hash, res)
		}
		n.enqueueReplica(hash, res)
	}
	n.registerMetrics()
	n.mgr = service.NewManager(so)
	n.local = service.Handler(n.mgr)

	n.det = newDetector(n.mem.remotes(), rise, fall, probeTimeout,
		n.probePeer, func(p Peer, routable bool) {
			n.met.Inc("rrs_fleet_peer_flaps_total", 1)
		})
	return n, nil
}

func (n *Node) registerMetrics() {
	for name, help := range map[string]string{
		"rrs_fleet_forwards_total":              "Submissions forwarded to their ring owner.",
		"rrs_fleet_forward_failovers_total":     "Forward attempts moved to the next-ranked peer after the preferred owner failed.",
		"rrs_fleet_local_fallbacks_total":       "Submissions run locally because every remote candidate failed.",
		"rrs_fleet_proxied_total":               "Job status/result/cancel requests proxied to the job's home node.",
		"rrs_fleet_proxy_misses_total":          "Proxied requests whose home node was unreachable (answered 404 so the client resubmits).",
		"rrs_fleet_cache_fanout_checks_total":   "Runs that asked the fleet's caches before simulating.",
		"rrs_fleet_cache_fanout_hits_total":     "Runs answered by a peer's result store instead of simulating.",
		"rrs_fleet_peer_flaps_total":            "Peer routability transitions (either direction) after hysteresis.",
		"rrs_fleet_replicated_total":            "Results pushed to their ring successor (completion-time replication plus repair).",
		"rrs_fleet_replicas_received_total":     "Replica payloads accepted into the local result store.",
		"rrs_fleet_replica_failures_total":      "Replica pushes that failed after retries (the repair loop retries later).",
		"rrs_fleet_replica_drops_total":         "Results dropped from the full replication queue (repair re-establishes their copies).",
		"rrs_fleet_repair_checks_total":         "Held results whose successor replica the anti-entropy loop verified.",
		"rrs_fleet_repair_replicated_total":     "Missing replicas re-pushed by the anti-entropy loop.",
		"rrs_fleet_membership_updates_total":    "Gossip exchanges that changed the local membership table.",
		"rrs_fleet_joins_total":                 "Successful -join handshakes performed by this node.",
		"rrs_fleet_no_owner_total":              "Submissions refused 503 because the live set was empty.",
		"rrs_fleet_sweep_children_routed_total": "Sweep children submitted to a remote ring owner (or, after a failure, the next candidate).",
		"rrs_fleet_sweep_children_local_total":  "Sweep children queued locally (self-owned or every remote candidate failed).",
		"rrs_fleet_sweep_child_failovers_total": "Sweep-child placements moved to the next-ranked peer after the owner failed.",
	} {
		n.met.Counter(name, help)
	}
	n.met.Gauge("rrs_fleet_peers", "Alive membership rows, self included (tombstoned members excluded).",
		func() float64 { return float64(n.mem.alive()) })
	n.met.Gauge("rrs_fleet_membership_version", "Local membership-table mutation counter.",
		func() float64 { return float64(n.mem.currentVersion()) })
	n.met.Gauge("rrs_fleet_replica_lag", "Results awaiting replication in the queue.",
		func() float64 { return float64(len(n.repq)) })
	n.met.Gauge("rrs_fleet_peers_live", "Routable peers, self included unless draining.",
		func() float64 { return float64(len(n.liveSet())) })
}

// Manager exposes the node's local manager (journal restore, tests).
func (n *Node) Manager() *service.Manager { return n.mgr }

// Start launches the background loops: failure-detector probes (which
// carry the membership gossip), the replicator, and the anti-entropy
// repair loop.
func (n *Node) Start() {
	n.loop(n.opts.ProbeInterval, func(ctx context.Context) { n.det.ProbeOnce(ctx) })
	if n.repq != nil {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.replicator()
		}()
	}
	if n.opts.RepairInterval > 0 {
		n.loop(n.opts.RepairInterval, func(ctx context.Context) { n.RepairOnce(ctx) })
	}
}

// loop runs fn every interval until Close.
func (n *Node) loop(interval time.Duration, fn func(ctx context.Context)) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-n.stop
			cancel()
		}()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				fn(ctx)
			}
		}
	}()
}

// Close stops the background loops. It does not touch the manager —
// pair it with Drain or the manager's Shutdown.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// StartDrain flips the node into drain mode: /readyz answers 503 (so
// peers' failure detectors pull this node from their rings within a
// probe round), Submit refuses new work, and the membership row is
// tombstoned — the leave is permanent and spreads through gossip,
// unlike a crash, which the detector merely routes around.
func (n *Node) StartDrain() {
	n.mgr.StartDrain()
	if n.mem.leave() {
		n.met.Inc("rrs_fleet_membership_updates_total", 1)
	}
}

// Drain gracefully winds the node down: stop accepting, give accepted
// jobs until ctx to finish, journal-requeue the rest (see
// service.Manager.Drain), flush pending replicas so finished results
// keep their successor copy, and stop the peer loops.
func (n *Node) Drain(ctx context.Context) error {
	n.StartDrain()
	err := n.mgr.Drain(ctx)
	n.FlushReplicas(ctx)
	n.Close()
	return err
}

// ProbeOnce drives one synchronous failure-detector round — how tests
// advance the detector deterministically. Each probe piggybacks a
// membership gossip exchange, so driving probes also spreads the table.
func (n *Node) ProbeOnce(ctx context.Context) { n.det.ProbeOnce(ctx) }

// probePeer is one failure-detector probe, and the fleet's gossip
// transport: a membership-table exchange proves liveness (a draining
// peer still answers it, which is how tombstones spread), then a
// single-attempt readiness check decides routability.
func (n *Node) probePeer(ctx context.Context, p Peer) error {
	if err := n.gossipExchange(ctx, p.URL); err != nil {
		return err
	}
	c := service.NewClient(p.URL,
		service.WithHTTPClient(n.hc),
		service.WithRetryPolicy(resilience.Policy{MaxAttempts: 1}))
	return c.Ready(ctx)
}

// gossipPayload is the POST /v1/fleet/gossip request and response body.
type gossipPayload struct {
	From    string   `json:"from,omitempty"`
	Members []Member `json:"members"`
}

// gossipExchange runs one push-pull round with the peer at base: send
// our table, absorb theirs from the response. Both directions converge
// under the Member merge rule.
func (n *Node) gossipExchange(ctx context.Context, base string) error {
	body, err := json.Marshal(gossipPayload{From: n.self.ID, Members: n.Members()})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/fleet/gossip", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: gossip with %s: status %d", base, resp.StatusCode)
	}
	var in gossipPayload
	if err := json.NewDecoder(resp.Body).Decode(&in); err != nil {
		return err
	}
	n.absorb(in.Members)
	return nil
}

// absorb merges a gossiped table and reacts to what it says about us:
// if the merged view shows self tombstoned or listed under a stale URL
// while we are alive and not draining, we re-announce with a higher
// epoch — that is the whole rejoin protocol, and it also covers a node
// restarted after a drain or rebooted on a new address under the same
// ID. Any table change recomputes the probed peer set, and therefore
// ring ownership.
func (n *Node) absorb(rows []Member) {
	changed := n.mem.merge(rows)
	if row, ok := n.mem.member(n.self.ID); !n.mgr.Draining() &&
		(!ok || row.Left || row.Peer.URL != n.self.URL) {
		if n.mem.announce(n.self) {
			changed = true
		}
	}
	if changed {
		n.met.Inc("rrs_fleet_membership_updates_total", 1)
		n.applyMembership()
	}
}

// applyMembership points the failure detector at the current alive
// remote set. Ring ownership follows automatically: liveSet() ranks
// over det.Routable(), which SetPeers just updated.
func (n *Node) applyMembership() {
	n.det.SetPeers(n.mem.remotes())
}

// Join introduces this node to a running fleet: exchange tables with
// each seed URL (retried), then push once more so an epoch-bumped
// re-announcement — the rejoin-under-same-ID case — reaches a live peer
// before the first probe round. At least one seed must answer.
func (n *Node) Join(ctx context.Context, seeds []string) error {
	var joined bool
	var lastErr error
	for _, seed := range seeds {
		err := resilience.Do(ctx, n.opts.Retry, func(ctx context.Context) error {
			return resilience.MarkTransient(n.gossipExchange(ctx, seed))
		})
		if err != nil {
			lastErr = err
			continue
		}
		joined = true
	}
	if !joined {
		return fmt.Errorf("fleet: join failed against every seed: %w", lastErr)
	}
	for _, seed := range seeds {
		n.gossipExchange(ctx, seed) // best-effort second push
	}
	n.met.Inc("rrs_fleet_joins_total", 1)
	return nil
}

// Members exposes the membership table (GET /v1/fleet/members, tests,
// the chaos soak's placement oracle).
func (n *Node) Members() []Member { return n.mem.snapshot() }

// liveSet is the ring: routable remote peers plus self unless
// draining.
func (n *Node) liveSet() []Peer {
	live := n.det.Routable()
	if !n.mgr.Draining() {
		live = append(live, n.self)
	}
	return live
}

// peerByID resolves an alive membership row (self and tombstones
// excluded). A job id whose prefix is unknown or departed falls back to
// the local handler, whose 404 triggers the client's resubmit recovery.
func (n *Node) peerByID(id string) (Peer, bool) {
	row, ok := n.mem.member(id)
	if !ok || row.Left || id == n.self.ID {
		return Peer{}, false
	}
	return row.Peer, true
}

// clientFor returns the retrying client for a peer's internal API,
// building one on first use and replacing it if the peer moved to a new
// URL — both routine events under dynamic membership.
func (n *Node) clientFor(p Peer) *service.Client {
	n.clientsMu.Lock()
	defer n.clientsMu.Unlock()
	if e, ok := n.clients[p.ID]; ok && e.url == p.URL {
		return e.c
	}
	c := service.NewClient(p.URL+internalPrefix,
		service.WithHTTPClient(n.hc),
		service.WithRetryPolicy(n.opts.Retry))
	// Fleet-internal polling runs node-to-node on the same network as
	// the ring probes; the public client's 250 ms default (and the
	// server's 1 s Retry-After hint, which an unset interval honors)
	// would dominate the latency of every routed sweep child.
	c.PollInterval = 20 * time.Millisecond
	n.clients[p.ID] = clientEntry{url: p.URL, c: c}
	return c
}

// fanoutRun wraps the manager's executor with the fleet-wide cache
// lookup: before simulating, ask the peers that should hold the spec's
// content hash (peerCached); any hit is returned as this job's result
// (and enters the local cache through the normal completion path).
func (n *Node) fanoutRun(inner service.RunFunc) service.RunFunc {
	return func(ctx context.Context, spec service.Spec, progress func(done, total int64)) (sim.Result, error) {
		if res, ok := n.peerCached(ctx, spec.Hash()); ok {
			if progress != nil {
				progress(1, 1)
			}
			return res, nil
		}
		return inner(ctx, spec, progress)
	}
}

// peerCached asks the hash's ring owner and that owner's successor,
// self skipped, and returns the first hit. Those are the two nodes
// replication puts a result on (the node that computed it, normally the
// owner, plus the first other live peer in rank order); anti-entropy
// repair restores that placement after churn, so asking the rest of the
// ring would only multiply the cost of every cold run. Each fetch is
// one GET of the peer's internal /v1/results/{hash}, which answers from
// that peer's store alone, and gets its own fanoutPeerTimeout slice of
// the fanoutTimeout budget, so one hung peer times out alone instead of
// pinning every cold submit to the full fan-out deadline. Best-effort:
// errors and timeouts are misses.
func (n *Node) peerCached(ctx context.Context, hash string) (sim.Result, bool) {
	var peers []Peer
	for i, p := range rank(hash, n.liveSet()) {
		if i == 2 {
			break
		}
		if p.ID != n.self.ID {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return sim.Result{}, false
	}
	n.met.Inc("rrs_fleet_cache_fanout_checks_total", 1)
	fctx, cancel := context.WithTimeout(ctx, fanoutTimeout)
	defer cancel()
	type answer struct {
		res sim.Result
		ok  bool
	}
	ch := make(chan answer, len(peers))
	for _, p := range peers {
		go func(p Peer) {
			pctx, pcancel := context.WithTimeout(fctx, fanoutPeerTimeout)
			defer pcancel()
			var env service.ResultEnvelope
			ok := n.peerLookup(pctx, http.MethodGet, p, hash, &env)
			ch <- answer{env.Result, ok}
		}(p)
	}
	for range peers {
		if a := <-ch; a.ok {
			n.met.Inc("rrs_fleet_cache_fanout_hits_total", 1)
			return a.res, true
		}
	}
	return sim.Result{}, false
}

// peerLookup sends one request (GET, or HEAD with a nil env) to p's
// internal GET /v1/results/{hash} and reports whether p's store holds
// hash. A GET decodes the ResultEnvelope into env.
func (n *Node) peerLookup(ctx context.Context, method string, p Peer, hash string, env *service.ResultEnvelope) bool {
	req, err := http.NewRequestWithContext(ctx, method,
		p.URL+internalPrefix+"/v1/results/"+hash, nil)
	if err != nil {
		return false
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	return env == nil || json.NewDecoder(resp.Body).Decode(env) == nil
}
