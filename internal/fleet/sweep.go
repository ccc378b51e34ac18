package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/sim"
)

// Sweep children and the fleet.
//
// A sweep parent lives on the node that accepted it (its id carries
// that node's prefix, and the journal that resumes it after a crash is
// that node's). The children are where the fleet comes in: each child
// job is content-addressed, so as the parent's feeder links a child,
// Options.RouteChild ranks the child's own hash over the live ring and
// submits it to its owner — the same placement a client POSTing the
// spec directly would get. The parent keeps a record of a remote child
// and waits for its result on a goroutine that holds no worker, so one
// sweep runs on every owner's workers at once; the record reaches the
// parent's journal only once the result is back. Each child lands where
// its result will be cached and replicated, and a resubmitted sweep
// finds every child's result already held by a live node.

// routeChild is the service.Options.RouteChild hook. A self-owned
// child comes back with a nil wait and is queued here. Any other child
// is submitted to the first remote candidate in its ring order that
// accepts it, and the returned wait polls that node for the result. An
// owner's 429 comes back as service.ErrQueueFull, so the feeder backs
// off and retries as it does for its own full queue; a full owner is
// never failed over. The child joins the local queue only when no
// remote candidate answers. ctx, which ends with the sweep, bounds the
// whole placement.
func (n *Node) routeChild(ctx context.Context, spec service.Spec) (func(context.Context) (sim.Result, error), error) {
	c := &remoteChild{n: n, spec: spec, order: rank(spec.Hash(), n.liveSet())}
	placed, err := c.place(ctx)
	if !placed {
		return nil, err
	}
	return c.wait, nil
}

// remoteChild is one sweep child placed on a peer.
type remoteChild struct {
	n     *Node
	spec  service.Spec
	order []Peer // the child's ring order; order[at] holds it
	at    int
	id    string // the job id on order[at]
}

// place submits the child to order[at], moving down the order past each
// candidate that fails. placed=false with a nil error means the walk
// reached this node or ran out: the child belongs in the local queue.
func (c *remoteChild) place(ctx context.Context) (placed bool, err error) {
	n := c.n
	for ; c.at < len(c.order) && c.order[c.at].ID != n.self.ID; c.at++ {
		p := c.order[c.at]
		if c.at > 0 {
			n.met.Inc("rrs_fleet_sweep_child_failovers_total", 1)
		}
		v, err := n.submitChild(ctx, p, c.spec)
		if err == nil {
			n.met.Inc("rrs_fleet_sweep_children_routed_total", 1)
			c.id = v.ID
			return true, nil
		}
		var apiErr *service.APIError
		switch {
		case errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests:
			return false, fmt.Errorf("fleet: %s: %w", p.ID, service.ErrQueueFull)
		case errors.As(err, &apiErr) && !apiErr.Transient() && apiErr.Status != http.StatusNotFound:
			// A permanent verdict from the candidate; the next one would
			// only repeat it.
			return false, err
		case ctx.Err() != nil:
			return false, ctx.Err()
		}
		// Transient failure after retries: fail over to the next
		// candidate now; the detector catches up within a probe round.
	}
	n.met.Inc("rrs_fleet_sweep_children_local_total", 1)
	return false, nil
}

// submitChild POSTs spec to p's internal API, retrying transient
// failures under Options.Retry — except a 429, which returns at once so
// the caller can wait the full queue out instead of sleeping through
// the owner's Retry-After hint. A submission only queues the child, so
// each attempt gets probeTimeout, like a probe: an owner that hangs
// costs the feeder that long per attempt, not the HTTP client's timeout.
func (n *Node) submitChild(ctx context.Context, p Peer, spec service.Spec) (service.JobView, error) {
	once := service.NewClient(p.URL+internalPrefix,
		service.WithHTTPClient(n.hc),
		service.WithRetryPolicy(resilience.Policy{MaxAttempts: 1}))
	var v service.JobView
	err := resilience.Do(ctx, n.opts.Retry, func(ctx context.Context) error {
		actx, cancel := context.WithTimeout(ctx, probeTimeout)
		defer cancel()
		var err error
		v, err = once.Submit(actx, spec)
		var apiErr *service.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
			return resilience.MarkPermanent(err)
		}
		return err
	})
	return v, err
}

// wait polls the child's node for its result. When that node loses the
// job or stops answering, the result may survive on a replica, so the
// fleet's result stores are asked by hash; failing that, the child
// moves down its ring order, to the local queue when no remote
// candidate is left. Either move waits out a full queue as the feeder
// does. A run that failed on its node fails the child. Cancellation
// stops the wait, not the remote run, which other submitters may share.
func (c *remoteChild) wait(ctx context.Context) (sim.Result, error) {
	n := c.n
	for {
		res, err := n.clientFor(c.order[c.at]).Result(ctx, c.id)
		var apiErr *service.APIError
		switch {
		case err == nil:
			return res, nil
		case ctx.Err() != nil:
			return sim.Result{}, ctx.Err()
		case errors.As(err, &apiErr) && apiErr.Status == http.StatusUnprocessableEntity:
			return sim.Result{}, err
		}
		if res, ok := n.resultByHash(ctx, c.spec.Hash()); ok {
			return res, nil
		}
		c.at++
		var placed bool
		if err := service.AwaitAdmission(ctx, func() (err error) {
			placed, err = c.place(ctx)
			return err
		}); err != nil {
			return sim.Result{}, err
		}
		if !placed {
			err := service.AwaitAdmission(ctx, func() (err error) {
				res, err = n.mgr.RunSync(ctx, c.spec)
				return err
			})
			return res, err
		}
	}
}

// resultByHash looks a result up fleet-wide: the local store, then the
// peers that should hold it (peerCached).
func (n *Node) resultByHash(ctx context.Context, hash string) (sim.Result, bool) {
	if res, ok := n.mgr.CachedResult(hash); ok {
		return res, true
	}
	return n.peerCached(ctx, hash)
}

// handleResultByHash answers GET /v1/results/{hash} fleet-wide. This is
// the lookup the client's lost-job recovery leans on — after an owner
// dies, the result usually survives on its successor's replica, and
// answering from there keeps failover from re-queueing finished work.
func (n *Node) handleResultByHash(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if res, ok := n.resultByHash(r.Context(), hash); ok {
		service.WriteJSON(w, http.StatusOK, service.ResultEnvelope{
			Hash: hash, CacheHit: true, Result: res,
		})
		return
	}
	service.WriteError(w, http.StatusNotFound,
		errors.New("no result for hash "+hash+" anywhere in the fleet"))
}
