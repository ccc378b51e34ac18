package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/sim"
)

// Result replication keeps the fleet's durability invariant: every
// completed result exists on K=2 nodes — the one that computed it plus
// the first other live peer in its spec hash's rendezvous order (the
// successor while we own the hash; the current owner if ownership has
// moved away from us). The payload is the stored result itself
// (Timeline- and Mitigation-stripped), so when the home node dies the
// existing cache fan-out finds the copy on the successor and a
// poll-404 resubmit is answered from cache instead of re-simulating.
//
// The push is asynchronous — a bounded queue fed by the manager's
// OnResult hook, drained by one replicator goroutine with
// resilience-backed retries — so replication never sits on the worker
// hot path. Whatever slips through (queue overflow, a push that fails
// every retry, a successor that later dies) is re-established by the
// anti-entropy repair loop, which slowly walks everything this node
// holds and verifies each hash's replica target still has the bytes.

// replicaTask is one queued replication: a stored result to copy out.
type replicaTask struct {
	hash string
	res  sim.Result
}

// enqueueReplica feeds the replication queue from the manager's
// OnResult hook. Non-blocking by design: the caller is a worker
// goroutine finishing a job, and a full queue must cost a counter
// bump, not simulation throughput.
func (n *Node) enqueueReplica(hash string, res sim.Result) {
	if n.repq == nil {
		return
	}
	select {
	case n.repq <- replicaTask{hash: hash, res: res}:
	default:
		n.met.Inc("rrs_fleet_replica_drops_total", 1)
	}
}

// replicator drains the queue until Close.
func (n *Node) replicator() {
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
		case t := <-n.repq:
			n.pushReplica(ctx, t.hash, t.res)
		}
	}
}

// FlushReplicas synchronously drains the replication queue — the drain
// path and tests use it to guarantee every finished result has its
// copy before the process goes away. Returns when the queue is empty
// or ctx expires.
func (n *Node) FlushReplicas(ctx context.Context) error {
	if n.repq == nil {
		return nil
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case t := <-n.repq:
			n.pushReplica(ctx, t.hash, t.res)
		default:
			return nil
		}
	}
}

// replicaTarget picks where hash's extra copy belongs: the first live
// peer other than self in the hash's rendezvous order. ok is false
// when there is no other live peer (single-node fleet, or everyone
// else is down) — nothing useful to do, repair will catch up once the
// ring grows.
func (n *Node) replicaTarget(hash string) (Peer, bool) {
	for _, p := range rank(hash, n.liveSet()) {
		if p.ID != n.self.ID {
			return p, true
		}
	}
	return Peer{}, false
}

// pushReplica copies one result to its replica target, retrying per
// the node's policy. Failures are counted and abandoned — the repair
// loop is the backstop, not a deeper retry stack.
func (n *Node) pushReplica(ctx context.Context, hash string, res sim.Result) bool {
	target, ok := n.replicaTarget(hash)
	if !ok {
		return false
	}
	err := resilience.Do(ctx, n.opts.Retry, func(ctx context.Context) error {
		return resilience.MarkTransient(n.sendReplica(ctx, target, hash, res))
	})
	if err != nil {
		n.met.Inc("rrs_fleet_replica_failures_total", 1)
		return false
	}
	n.met.Inc("rrs_fleet_replicated_total", 1)
	return true
}

// sendReplica is one POST /v1/fleet/replica attempt.
func (n *Node) sendReplica(ctx context.Context, p Peer, hash string, res sim.Result) error {
	body, err := json.Marshal(service.ResultEnvelope{Hash: hash, Result: res})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		p.URL+"/v1/fleet/replica", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: replica push to %s: status %d", p.ID, resp.StatusCode)
	}
	return nil
}

// RepairOnce runs one anti-entropy batch: walk up to repairBatch of
// the results this node holds (the result store's keys in sorted order,
// cursor-advanced across calls so big sets are covered a slice at a
// time), verify the current replica target still holds each one, and
// re-push the ones it lost — the invariant-restoring move after
// ownership churn. Returns how many were checked and re-replicated;
// exposed for tests and driven by Start's repair loop in production.
func (n *Node) RepairOnce(ctx context.Context) (checked, repaired int) {
	hashes := n.mgr.DoneHashes()
	if len(hashes) == 0 {
		return 0, 0
	}
	n.mu.Lock()
	start := n.repairIdx % len(hashes)
	batch := min(repairBatch, len(hashes))
	n.repairIdx = (start + batch) % len(hashes)
	n.mu.Unlock()

	for i := 0; i < batch; i++ {
		if ctx.Err() != nil {
			return checked, repaired
		}
		hash := hashes[(start+i)%len(hashes)]
		target, ok := n.replicaTarget(hash)
		if !ok {
			continue
		}
		checked++
		n.met.Inc("rrs_fleet_repair_checks_total", 1)
		if n.peerLookup(ctx, http.MethodHead, target, hash, nil) {
			continue
		}
		res, ok := n.mgr.CachedResult(hash)
		if !ok {
			continue
		}
		if n.pushReplica(ctx, hash, res) {
			repaired++
			n.met.Inc("rrs_fleet_repair_replicated_total", 1)
		}
	}
	return checked, repaired
}

// handleReplica accepts a pushed replica into the local result store.
// No job record is created and OnResult does not fire — a replica must
// never fan back out from the receiving side.
func (n *Node) handleReplica(w http.ResponseWriter, r *http.Request) {
	var env service.ResultEnvelope
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(&env); err != nil {
		http.Error(w, "bad replica payload: "+err.Error(), http.StatusBadRequest)
		return
	}
	if env.Hash == "" {
		http.Error(w, "replica payload needs a hash", http.StatusBadRequest)
		return
	}
	n.mgr.InsertCached(env.Hash, env.Result)
	n.met.Inc("rrs_fleet_replicas_received_total", 1)
	w.WriteHeader(http.StatusNoContent)
}
