package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/service"
)

// Fleet API, layered over the single-node service API.
//
//	POST /v1/jobs                 fleet submit: ring-routed, forwarded to the owner
//	GET/DELETE /v1/jobs/{id}...   proxied to the job's home node (by id prefix)
//	POST /v1/sweeps               accepted locally; children ring-route by their own hash
//	GET  /v1/results/{hash}       result by content hash, fleet-wide (local store, then peers)
//	POST /v1/fleet/replica        accept a result copy into the local store
//	POST /v1/fleet/gossip         membership-table exchange (probe piggyback)
//	GET  /v1/fleet/members        the local membership table
//	GET  /v1/fleet/status         ring membership and load
//	/v1/fleet/local/*             the unrouted single-node API (peer traffic:
//	                              forwards, proxies, and the fan-out's and
//	                              repair's /v1/results/{hash} lookups)
//
// Everything else (list, healthz, readyz, metrics) falls through to the
// local service handler.

// Handler serves the fleet API over the node.
func (n *Node) Handler() http.Handler {
	local := n.local
	mux := http.NewServeMux()

	// The internal surface: the plain single-node API with no fleet
	// routing on top. Forwarded submissions and proxied polls land here,
	// so a peer-to-peer request is always handled by the node that
	// receives it — a forward cannot cascade into a forwarding loop.
	mux.Handle(internalPrefix+"/", http.StripPrefix(internalPrefix, local))

	mux.HandleFunc("POST /v1/jobs", n.handleFleetSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", n.handleRouted)
	mux.HandleFunc("GET /v1/jobs/{id}/result", n.handleRouted)
	mux.HandleFunc("DELETE /v1/jobs/{id}", n.handleRouted)

	mux.HandleFunc("GET /v1/results/{hash}", n.handleResultByHash)

	mux.HandleFunc("POST /v1/fleet/replica", n.handleReplica)
	mux.HandleFunc("POST /v1/fleet/gossip", n.handleGossip)
	mux.HandleFunc("GET /v1/fleet/members", n.handleMembers)
	mux.HandleFunc("GET /v1/fleet/status", n.handleStatus)

	mux.Handle("/", local)
	return service.RecoverMiddleware(n.met, mux)
}

// handleFleetSubmit routes a submission to its ring owner. The owner is
// rank(...)[0] over the live set; if it is unreachable the walk
// continues down the failover order, and if every remote candidate
// fails the spec runs locally — a lone survivor still serves.
func (n *Node) handleFleetSubmit(w http.ResponseWriter, r *http.Request) {
	spec, ok := service.ReadSpec(w, r)
	if !ok {
		return
	}
	// Validate before routing: a malformed spec should fail here with a
	// 400, not burn a forward round trip to fail identically remotely.
	if err := spec.Validate(); err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	order := rank(spec.Hash(), n.liveSet())
	if len(order) == 0 {
		// The live set is empty: this node is draining and sees no
		// routable peer. Refusing with a retry hint is strictly better
		// than the old behavior (running locally while unready) — the
		// client backs off and resubmits once the detector readmits a
		// peer or a replacement joins.
		n.met.Inc("rrs_fleet_no_owner_total", 1)
		w.Header().Set("Retry-After", "1")
		service.WriteError(w, http.StatusServiceUnavailable,
			errors.New("no live fleet members to route to; retry shortly"))
		return
	}
	first := true
	for _, p := range order {
		if p.ID == n.self.ID {
			// We are the best live candidate; run it here.
			service.RespondSubmit(n.mgr, w, spec)
			return
		}
		if !first {
			n.met.Inc("rrs_fleet_forward_failovers_total", 1)
		}
		first = false
		v, err := n.clientFor(p).Submit(r.Context(), spec)
		if err == nil {
			n.met.Inc("rrs_fleet_forwards_total", 1)
			status := http.StatusCreated
			if v.CacheHit {
				status = http.StatusOK
			}
			service.WriteJSON(w, status, v)
			return
		}
		var apiErr *service.APIError
		if errors.As(err, &apiErr) && !apiErr.Transient() {
			// The owner answered with a permanent verdict (a 4xx) —
			// relay it; trying another peer would only repeat it.
			n.met.Inc("rrs_fleet_forwards_total", 1)
			service.WriteError(w, apiErr.Status, errors.New(apiErr.Message))
			return
		}
		// Transient failure after retries: the failure detector will
		// catch up in a few probe rounds; meanwhile, fail over now.
	}
	// Every remote candidate failed (or the ring is empty because this
	// node is draining). Local execution is the degraded-mode answer —
	// RespondSubmit turns a draining manager into the proper 503.
	n.met.Inc("rrs_fleet_local_fallbacks_total", 1)
	service.RespondSubmit(n.mgr, w, spec)
}

// homeOf extracts the home node from a fleet job id ("n1.job-000042" →
// "n1"). ok is false for unprefixed or self-owned ids, which are served
// locally.
func (n *Node) homeOf(id string) (Peer, bool) {
	prefix, _, found := strings.Cut(id, ".")
	if !found || prefix == n.self.ID {
		return Peer{}, false
	}
	return n.peerByID(prefix)
}

// handleRouted serves job status/result/cancel for any node's jobs: the
// job id carries its home node's prefix, and requests for a remote
// node's job proxy to that node's internal surface. An unreachable home
// answers 404 — deliberately, because the client's recovery for a lost
// job is to resubmit the spec, which re-routes over the shrunken ring.
func (n *Node) handleRouted(w http.ResponseWriter, r *http.Request) {
	p, remote := n.homeOf(r.PathValue("id"))
	if !remote {
		// Local job (or an id from before fleet mode); strip nothing —
		// the local handler resolves the same path.
		n.local.ServeHTTP(w, r)
		return
	}
	n.met.Inc("rrs_fleet_proxied_total", 1)
	req, err := http.NewRequestWithContext(r.Context(), r.Method,
		p.URL+internalPrefix+r.URL.Path, nil)
	if err != nil {
		service.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		n.met.Inc("rrs_fleet_proxy_misses_total", 1)
		service.WriteError(w, http.StatusNotFound,
			fmt.Errorf("job's home node %s is unreachable: resubmit the spec", p.ID))
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleGossip is the receiving half of the probe-piggybacked
// membership exchange: absorb the caller's table, answer with ours. It
// deliberately answers while draining — that is how this node's own
// tombstone spreads — and doubles as the liveness half of a probe.
func (n *Node) handleGossip(w http.ResponseWriter, r *http.Request) {
	var in gossipPayload
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&in); err != nil {
		http.Error(w, "bad gossip payload: "+err.Error(), http.StatusBadRequest)
		return
	}
	n.absorb(in.Members)
	service.WriteJSON(w, http.StatusOK,
		gossipPayload{From: n.self.ID, Members: n.Members()})
}

// handleMembers exposes the membership table read-only (operators,
// join scripts, tests).
func (n *Node) handleMembers(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK,
		gossipPayload{From: n.self.ID, Members: n.Members()})
}

// handleStatus reports ring membership and load — the operator's view
// of one node's opinion of the fleet.
func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	backlog, busy, workers := n.mgr.Load()
	service.WriteJSON(w, http.StatusOK, map[string]any{
		"self":               n.self,
		"draining":           n.mgr.Draining(),
		"backlog":            backlog,
		"busy":               busy,
		"workers":            workers,
		"peers":              n.det.Snapshot(),
		"members":            n.Members(),
		"membership_version": n.mem.currentVersion(),
		"replica_lag":        len(n.repq),
	})
}
