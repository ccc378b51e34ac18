package fleet

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/service"
	"repro/internal/sim"
)

// Sweep children and the fleet.
//
// A sweep parent lives on the node that accepted it (its id carries
// that node's prefix, and the journal that resumes it after a crash is
// that node's). The children are where the fleet comes in: each child
// job is content-addressed, so instead of running every child on the
// accepting node, Options.RunChild ranks the child's own hash over the
// live ring and hands it to its owner — the same placement a client
// POSTing the spec directly would get. One sweep therefore spreads
// across the fleet, each child lands where its result will be cached
// and replicated, and a resubmitted sweep finds every child's result
// already owned by a live node.

// childRun is the service.Options.RunChild hook: route one expanded
// sweep child to its ring owner. Self-owned children run through the
// normal local path (local — the fan-out-wrapped executor — so even
// they check the fleet cache first). Remote owners get the child via
// their internal API, walking the failover order like a forwarded
// submission; if every remote candidate fails, the child runs locally —
// a lone survivor still finishes its sweeps.
func (n *Node) childRun(local service.RunFunc) service.RunFunc {
	return func(ctx context.Context, spec service.Spec, progress func(done, total int64)) (sim.Result, error) {
		first := true
		for _, p := range rank(spec.Hash(), n.liveSet()) {
			if p.ID == n.self.ID {
				break // we own this child; run it here
			}
			if !first {
				n.met.Inc("rrs_fleet_sweep_child_failovers_total", 1)
			}
			first = false
			res, err := n.clientFor(p).Run(ctx, spec)
			if err == nil {
				n.met.Inc("rrs_fleet_sweep_children_routed_total", 1)
				if progress != nil {
					progress(1, 1)
				}
				return res, nil
			}
			var apiErr *service.APIError
			if errors.As(err, &apiErr) && !apiErr.Transient() &&
				apiErr.Status != http.StatusNotFound {
				// A permanent verdict from the owner (the child failed or
				// was refused); rerouting would only repeat it.
				return sim.Result{}, err
			}
			if ctx.Err() != nil {
				return sim.Result{}, ctx.Err()
			}
			// Transient failure after retries: fail over to the next
			// candidate now; the detector catches up within a probe round.
		}
		n.met.Inc("rrs_fleet_sweep_children_local_total", 1)
		return local(ctx, spec, progress)
	}
}

// handleResultByHash answers GET /v1/results/{hash} fleet-wide: the
// local result store first, then the routable peers' caches. This is
// the lookup the client's lost-job recovery leans on — after an owner
// dies, the result usually survives on its successor's replica, and
// answering from there keeps failover from re-queueing finished work.
func (n *Node) handleResultByHash(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if res, ok := n.mgr.CachedResult(hash); ok {
		service.WriteJSON(w, http.StatusOK, service.ResultEnvelope{
			Hash: hash, CacheHit: true, Result: res,
		})
		return
	}
	if res, ok := n.peerCached(r.Context(), hash); ok {
		n.met.Inc("rrs_fleet_cache_fanout_hits_total", 1)
		service.WriteJSON(w, http.StatusOK, service.ResultEnvelope{
			Hash: hash, CacheHit: true, Result: res,
		})
		return
	}
	service.WriteError(w, http.StatusNotFound,
		errors.New("no result for hash "+hash+" anywhere in the fleet"))
}
