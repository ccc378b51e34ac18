package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// soloNode boots one extra node with a roster of just itself — the
// -join path: everything else it must learn through gossip.
func soloNode(t *testing.T, id string, mod func(o *Options)) *tfNode {
	t.Helper()
	sw := &swapHandler{}
	srv := httptest.NewServer(sw)
	t.Cleanup(srv.Close)
	tn := &tfNode{srv: srv, swap: sw, runs: &atomic.Int64{}}
	runs := tn.runs
	self := Peer{ID: id, URL: srv.URL}
	opts := Options{
		Self:  self,
		Peers: []Peer{self},
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
		HTTPClient: &http.Client{Timeout: 5 * time.Second},
		Retry:      fastRetry,
	}
	if mod != nil {
		mod(&opts)
	}
	node, err := New(opts)
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	tn.node = node
	sw.Store(node.Handler())
	t.Cleanup(func() {
		node.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		node.Manager().Shutdown(ctx)
	})
	return tn
}

// aliveIDs projects a membership snapshot onto its alive member ids.
func aliveIDs(members []Member) map[string]bool {
	out := make(map[string]bool)
	for _, m := range members {
		if !m.Left {
			out[m.Peer.ID] = true
		}
	}
	return out
}

func probeAll(ctx context.Context, nodes ...*tfNode) {
	for _, tn := range nodes {
		tn.node.ProbeOnce(ctx)
	}
}

func TestFleetJoinDynamicMembership(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	n3 := soloNode(t, "n3", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	if err := n3.node.Join(ctx, []string{nodes[0].srv.URL}); err != nil {
		t.Fatalf("join: %v", err)
	}
	// The seed peer and the joiner know each other immediately; one or
	// two gossip-carrying probe rounds spread the row to n2.
	all := []*tfNode{nodes[0], nodes[1], n3}
	probeAll(ctx, all...)
	probeAll(ctx, all...)
	for _, tn := range all {
		got := aliveIDs(tn.node.Members())
		if len(got) != 3 || !got["n1"] || !got["n2"] || !got["n3"] {
			t.Fatalf("%s sees alive members %v, want n1 n2 n3", tn.node.self.ID, got)
		}
	}

	// The grown ring routes to the newcomer with no survivor restarted:
	// a spec the 3-node ring assigns to n3, submitted via n1, runs there.
	spec := specOwnedBy(t, all, 2, 500)
	v, err := fleetClient(nodes[0]).Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit via n1: %v", err)
	}
	if !strings.HasPrefix(v.ID, "n3.") {
		t.Fatalf("job id %q not homed on the joined node", v.ID)
	}
	if _, err := fleetClient(nodes[0]).Result(ctx, v.ID); err != nil {
		t.Fatalf("result: %v", err)
	}
	if got := n3.runs.Load(); got != 1 {
		t.Fatalf("joined node ran %d times, want 1", got)
	}
	if counter(n3, "rrs_fleet_joins_total") != 1 {
		t.Fatalf("join not counted")
	}
}

func TestFleetRejoinSameIDNewAddress(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// n3 dies for good at its old address...
	oldURL := nodes[2].srv.URL
	nodes[2].srv.Close()
	nodes[2].node.Close()
	// ...and its replacement claims the same ID somewhere else.
	r3 := soloNode(t, "n3", nil)
	if r3.srv.URL == oldURL {
		t.Fatalf("test needs a distinct address for the replacement")
	}
	if err := r3.node.Join(ctx, []string{nodes[0].srv.URL}); err != nil {
		t.Fatalf("rejoin: %v", err)
	}

	// The seed's table must point at the new address — the epoch bump in
	// Join's re-announce supersedes the stale row regardless of URL
	// ordering — and gossip moves it to the other survivor.
	if row, ok := nodes[0].node.mem.member("n3"); !ok || row.Left || row.Peer.URL != r3.srv.URL {
		t.Fatalf("n1's row for n3 = %+v, want alive at %s", row, r3.srv.URL)
	}
	survivors := []*tfNode{nodes[0], nodes[1], r3}
	probeAll(ctx, survivors...)
	probeAll(ctx, survivors...)
	if row, ok := nodes[1].node.mem.member("n3"); !ok || row.Left || row.Peer.URL != r3.srv.URL {
		t.Fatalf("n2's row for n3 = %+v, want alive at %s", row, r3.srv.URL)
	}

	// Work owned by n3 routes to the replacement without any survivor
	// restart — the whole point of dynamic membership.
	spec := specOwnedBy(t, survivors, 2, 600)
	v, err := fleetClient(nodes[1]).Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit via n2: %v", err)
	}
	if !strings.HasPrefix(v.ID, "n3.") {
		t.Fatalf("job id %q not homed on the replacement", v.ID)
	}
	if _, err := fleetClient(nodes[1]).Result(ctx, v.ID); err != nil {
		t.Fatalf("result: %v", err)
	}
	if got := r3.runs.Load(); got != 1 {
		t.Fatalf("replacement ran %d times, want 1", got)
	}
}

func TestFleetDrainSpreadsTombstoneNoResurrect(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	nodes[0].node.StartDrain()
	// n2's next probe gossips with the draining n1 and learns the leave.
	nodes[1].node.ProbeOnce(ctx)
	row, ok := nodes[1].node.mem.member("n1")
	if !ok || !row.Left {
		t.Fatalf("n2's row for n1 = %+v, want tombstoned", row)
	}
	if len(nodes[1].node.det.Routable()) != 0 {
		t.Fatalf("tombstoned peer still probed/routable")
	}

	// A stale table replaying the pre-drain world must not resurrect it.
	stale, _ := json.Marshal(gossipPayload{From: "ghost", Members: []Member{
		{Peer: nodes[0].node.self, Epoch: 1},
	}})
	resp, err := http.Post(nodes[1].srv.URL+"/v1/fleet/gossip", "application/json",
		bytes.NewReader(stale))
	if err != nil {
		t.Fatalf("stale gossip: %v", err)
	}
	var answer gossipPayload
	if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
		t.Fatalf("decode gossip answer: %v", err)
	}
	resp.Body.Close()
	for _, m := range answer.Members {
		if m.Peer.ID == "n1" && !m.Left {
			t.Fatalf("stale gossip resurrected n1: %+v", m)
		}
	}
	if row, _ := nodes[1].node.mem.member("n1"); !row.Left {
		t.Fatalf("n1 alive again after stale gossip: %+v", row)
	}
}

func TestFleetConcurrentJoinAndDrain(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	n4 := soloNode(t, "n4", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Membership churns from both ends at once: a join through n1 races
	// a drain on n3.
	var wg sync.WaitGroup
	wg.Add(2)
	var joinErr error
	go func() {
		defer wg.Done()
		joinErr = n4.node.Join(ctx, []string{nodes[0].srv.URL})
	}()
	go func() {
		defer wg.Done()
		nodes[2].node.StartDrain()
	}()
	wg.Wait()
	if joinErr != nil {
		t.Fatalf("join during drain: %v", joinErr)
	}

	all := []*tfNode{nodes[0], nodes[1], nodes[2], n4}
	probeAll(ctx, all...)
	probeAll(ctx, all...)
	probeAll(ctx, all...)
	for _, tn := range []*tfNode{nodes[0], nodes[1], n4} {
		got := aliveIDs(tn.node.Members())
		if len(got) != 3 || !got["n1"] || !got["n2"] || !got["n4"] {
			t.Fatalf("%s sees alive members %v, want n1 n2 n4", tn.node.self.ID, got)
		}
		if row, ok := tn.node.mem.member("n3"); !ok || !row.Left {
			t.Fatalf("%s's row for n3 = %+v, want tombstoned", tn.node.self.ID, row)
		}
	}

	// The post-churn ring serves: one run somewhere alive, none on the
	// drained node.
	spec := uniqueSpec(650)
	if _, err := fleetClient(nodes[1]).Run(ctx, spec); err != nil {
		t.Fatalf("run after churn: %v", err)
	}
	if nodes[2].runs.Load() != 0 {
		t.Fatalf("drained node ran a job")
	}
	var total int64
	for _, tn := range all {
		total += tn.runs.Load()
	}
	if total != 1 {
		t.Fatalf("fleet ran the job %d times, want exactly 1", total)
	}
}

func TestFleetSubmitEmptyLiveSet(t *testing.T) {
	nodes := startFleet(t, 1, nil)
	nodes[0].node.StartDrain()

	body, _ := json.Marshal(uniqueSpec(42))
	resp, err := http.Post(nodes[0].srv.URL+"/v1/jobs", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("503 missing Retry-After")
	}
	if counter(nodes[0], "rrs_fleet_no_owner_total") != 1 {
		t.Fatalf("empty live set not counted")
	}
	if nodes[0].runs.Load() != 0 {
		t.Fatalf("unready node ran the job anyway")
	}
}

func TestFleetReplicationToSuccessor(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	spec := uniqueSpec(11)
	owner := ownerIndex(t, nodes, spec)
	succ := 1 - owner
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	if _, err := fleetClient(nodes[owner]).Run(ctx, spec); err != nil {
		t.Fatalf("run on owner: %v", err)
	}
	// Background loops are off in unit tests; drain the queue by hand.
	if err := nodes[owner].node.FlushReplicas(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	res, ok := nodes[succ].node.mgr.CachedResult(spec.Hash())
	if !ok {
		t.Fatalf("successor holds no replica")
	}
	if res.IPC != 11 {
		t.Fatalf("replica IPC = %v, want 11", res.IPC)
	}
	if counter(nodes[owner], "rrs_fleet_replicated_total") != 1 {
		t.Fatalf("replication not counted on the owner")
	}
	if counter(nodes[succ], "rrs_fleet_replicas_received_total") != 1 {
		t.Fatalf("replica receipt not counted on the successor")
	}

	// The payoff: the owner dies, and the resubmitted spec is a local
	// cache hit on the successor — zero re-executions fleet-wide.
	nodes[owner].srv.Close()
	res2, err := localClient(nodes[succ]).Run(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit on survivor: %v", err)
	}
	if res2.IPC != 11 {
		t.Fatalf("resubmitted IPC = %v, want 11", res2.IPC)
	}
	if got := nodes[succ].runs.Load(); got != 0 {
		t.Fatalf("survivor re-ran the spec %d times, want 0", got)
	}
}

func TestFleetReplicaQueueBoundedAndRepairBackstop(t *testing.T) {
	nodes := startFleet(t, 2, func(i int, o *Options) {
		o.ReplicationQueue = 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Three sequential completions against a 1-deep queue: the first
	// fills it, the next two drop — counted, never blocking the worker.
	for seed := uint64(21); seed <= 23; seed++ {
		if _, err := localClient(nodes[0]).Run(ctx, uniqueSpec(seed)); err != nil {
			t.Fatalf("run seed %d: %v", seed, err)
		}
	}
	if got := counter(nodes[0], "rrs_fleet_replica_drops_total"); got != 2 {
		t.Fatalf("drops = %d, want 2", got)
	}

	// Anti-entropy is the backstop for exactly those drops: one pass
	// re-establishes every missing replica.
	checked, repaired := nodes[0].node.RepairOnce(ctx)
	if checked != 3 || repaired != 3 {
		t.Fatalf("RepairOnce = (%d checked, %d repaired), want (3, 3)", checked, repaired)
	}
	for seed := uint64(21); seed <= 23; seed++ {
		if _, ok := nodes[1].node.mgr.CachedResult(uniqueSpec(seed).Hash()); !ok {
			t.Fatalf("seed %d has no replica after repair", seed)
		}
	}
	// A second pass verifies and re-pushes nothing.
	checked, repaired = nodes[0].node.RepairOnce(ctx)
	if checked != 3 || repaired != 0 {
		t.Fatalf("second RepairOnce = (%d, %d), want (3, 0)", checked, repaired)
	}
}

// TestFleetCacheLookupKeepsOldResults: the fan-out and replica-check
// endpoint answers from the node's whole result store, so a result is
// still held after the node has finished 300 more.
func TestFleetCacheLookupKeepsOldResults(t *testing.T) {
	n := soloNode(t, "n1", nil)
	mgr := n.node.Manager()
	for seed := uint64(1); seed <= 301; seed++ {
		j, err := mgr.Submit(uniqueSpec(seed))
		if err != nil {
			t.Fatalf("submit seed %d: %v", seed, err)
		}
		select {
		case <-j.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("seed %d never finished", seed)
		}
	}
	resp, err := http.Head(n.srv.URL + internalPrefix + "/v1/results/" + uniqueSpec(1).Hash())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD for the first job's hash = %d, want 200", resp.StatusCode)
	}
}

func TestFleetRepairAfterOwnershipMoved(t *testing.T) {
	// Replication disabled: the result exists only where it was computed,
	// which is NOT its ring owner — the post-churn shape repair fixes.
	nodes := startFleet(t, 3, func(i int, o *Options) {
		o.ReplicationQueue = -1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	spec := specOwnedBy(t, nodes, 0, 700)
	if _, err := localClient(nodes[1]).Run(ctx, spec); err != nil {
		t.Fatalf("run on non-owner: %v", err)
	}
	checked, repaired := nodes[1].node.RepairOnce(ctx)
	if checked != 1 || repaired != 1 {
		t.Fatalf("RepairOnce = (%d, %d), want (1, 1)", checked, repaired)
	}
	// The copy went to the hash's best other peer — its owner.
	if _, ok := nodes[0].node.mgr.CachedResult(spec.Hash()); !ok {
		t.Fatalf("owner did not receive the repair push")
	}
	if counter(nodes[1], "rrs_fleet_repair_replicated_total") != 1 {
		t.Fatalf("repair push not counted")
	}
}

func TestFleetFanoutBoundedByPerPeerTimeout(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Both peers hang on cache lookups far past the per-peer budget.
	const hang = 3 * time.Second
	for _, tn := range nodes[1:] {
		inner := tn.swap.Load()
		tn.swap.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, internalPrefix+"/v1/results/") {
				time.Sleep(hang)
			}
			inner.ServeHTTP(w, r)
		}))
	}

	start := time.Now()
	if _, err := localClient(nodes[0]).Run(ctx, uniqueSpec(31)); err != nil {
		t.Fatalf("run with hung peers: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed >= fanoutTimeout {
		t.Fatalf("cold submit stalled %v behind hung peers; per-peer timeout did not bound it", elapsed)
	}
	if nodes[0].runs.Load() != 1 {
		t.Fatalf("spec did not run locally after the bounded miss")
	}
}

// TestFleetGossipEndpointAnswersWhileDraining pins the property the
// whole leave protocol depends on.
func TestFleetGossipEndpointAnswersWhileDraining(t *testing.T) {
	nodes := startFleet(t, 1, nil)
	nodes[0].node.StartDrain()
	body, _ := json.Marshal(gossipPayload{From: "x", Members: nil})
	resp, err := http.Post(nodes[0].srv.URL+"/v1/fleet/gossip", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatalf("gossip with draining node: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining gossip status = %d, want 200", resp.StatusCode)
	}
	var answer gossipPayload
	if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
		t.Fatalf("decode: %v", err)
	}
	found := false
	for _, m := range answer.Members {
		if m.Peer.ID == "n1" && m.Left {
			found = true
		}
	}
	if !found {
		t.Fatalf("draining node's gossip answer %v lacks its own tombstone", answer.Members)
	}
}

// TestFleetFanoutAsksOnlyOwnerAndSuccessor: a cold run asks only the
// two nodes replication puts a result on, the hash's owner and its
// successor, and still finds a result held only by the successor.
func TestFleetFanoutAsksOnlyOwnerAndSuccessor(t *testing.T) {
	nodes := startFleet(t, 4, nil)
	var fetches atomic.Int64
	for _, tn := range nodes {
		inner := tn.swap.Load()
		tn.swap.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, internalPrefix+"/v1/results/") {
				fetches.Add(1)
			}
			inner.ServeHTTP(w, r)
		}))
	}
	roster := make([]Peer, len(nodes))
	byID := map[string]*tfNode{}
	for i, tn := range nodes {
		roster[i] = tn.node.self
		byID[tn.node.self.ID] = tn
	}
	// A spec that n1, the submitting node, neither owns nor succeeds.
	var spec service.Spec
	var order []Peer
	for seed := uint64(1); ; seed++ {
		spec = uniqueSpec(seed)
		order = rank(spec.Hash(), roster)
		if order[0].ID != "n1" && order[1].ID != "n1" {
			break
		}
	}
	byID[order[1].ID].node.Manager().InsertCached(spec.Hash(), sim.Result{IPC: 77})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := localClient(nodes[0]).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC != 77 {
		t.Fatalf("IPC = %v, want the successor's replica (77)", res.IPC)
	}
	if runs := nodes[0].runs.Load(); runs != 0 {
		t.Fatalf("n1 ran %d times, want 0 (the replica answers)", runs)
	}
	if got := fetches.Load(); got > 2 {
		t.Fatalf("cold run made %d cache fetches, want at most 2", got)
	}
}
