package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// API paths served by Handler.
//
//	POST   /v1/jobs          submit a Spec        → 201 JobView (200 on cache hit)
//	GET    /v1/jobs          list jobs            → 200 {"jobs":[JobView...]}
//	GET    /v1/jobs/{id}     job status           → 200 JobView
//	GET    /v1/jobs/{id}/result                   → 200 ResultEnvelope | 202 while active
//	DELETE /v1/jobs/{id}     cancel active / delete terminal → 200 JobView
//	POST   /v1/sweeps        submit a SweepSpec   → 201 SweepView (200 when coalesced)
//	GET    /v1/sweeps        list sweeps          → 200 {"sweeps":[SweepView...]}
//	GET    /v1/sweeps/{id}   aggregated progress  → 200 SweepView (with children)
//	GET    /v1/sweeps/{id}/results                → 200 SweepResultsEnvelope | 202 while active
//	DELETE /v1/sweeps/{id}   cancel active / delete terminal → 200 SweepView
//	GET    /v1/results/{hash} result by content hash → 200 ResultEnvelope | 404
//	GET    /healthz          liveness             → 200 {"status":"ok",...}
//	GET    /readyz           readiness            → 200, or 503 while draining/overloaded
//	GET    /metrics          Prometheus text (or JSON with ?format=json)
const apiPrefix = "/v1/jobs"

// maxSpecBytes bounds POST /v1/jobs request bodies. A Spec is a few
// hundred bytes of scalars and workload names; 1 MiB is generous, and
// the bound turns an attacker streaming an endless body into a 413
// instead of an unbounded io.ReadAll allocation.
const maxSpecBytes = 1 << 20

// retryAfterSeconds is the hint attached to 429 (queue full) and 202
// (result pending) responses so well-behaved clients back off without
// guessing a cadence.
const retryAfterSeconds = 1

// ResultEnvelope wraps a finished job's numbers for GET .../result.
// sim.Result serializes without its Mitigation field (tagged json:"-"),
// so the payload is purely numeric.
type ResultEnvelope struct {
	ID       string     `json:"id"`
	Hash     string     `json:"hash"`
	CacheHit bool       `json:"cache_hit"`
	Result   sim.Result `json:"result"`
}

// errorBody is every non-2xx payload.
type errorBody struct {
	Error string `json:"error"`
}

// Handler serves the job API over m.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+apiPrefix, func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(m, w, r)
	})
	mux.HandleFunc("GET "+apiPrefix, func(w http.ResponseWriter, r *http.Request) {
		handleList(m, w, r)
	})
	mux.HandleFunc("GET "+apiPrefix+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleGet(m, w, r)
	})
	mux.HandleFunc("GET "+apiPrefix+"/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		handleResult(m, w, r)
	})
	mux.HandleFunc("DELETE "+apiPrefix+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleDelete(m, w, r)
	})
	mux.HandleFunc("POST "+sweepPrefix, func(w http.ResponseWriter, r *http.Request) {
		handleSubmitSweep(m, w, r)
	})
	mux.HandleFunc("GET "+sweepPrefix, func(w http.ResponseWriter, r *http.Request) {
		handleListSweeps(m, w, r)
	})
	mux.HandleFunc("GET "+sweepPrefix+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleGetSweep(m, w, r)
	})
	mux.HandleFunc("GET "+sweepPrefix+"/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		handleSweepResults(m, w, r)
	})
	mux.HandleFunc("DELETE "+sweepPrefix+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleDeleteSweep(m, w, r)
	})
	mux.HandleFunc("GET /v1/results/{hash}", func(w http.ResponseWriter, r *http.Request) {
		handleResultByHash(m, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":  "ok",
			"workers": m.opts.Workers,
			"queue":   m.queue.Len(),
		})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		handleReady(m, w, r)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		handleMetrics(m.Metrics(), w, r)
	})
	return recoverMiddleware(m.Metrics(), mux)
}

// RecoverMiddleware exposes the panic-containment middleware to the
// fleet layer, whose handler wraps Handler with routing logic of its
// own and needs the same blast-radius guarantee.
func RecoverMiddleware(met *Metrics, next http.Handler) http.Handler {
	return recoverMiddleware(met, next)
}

// WriteJSON writes v as an indented JSON response with the given
// status. Exported for the fleet handler.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// WriteError writes err as the canonical JSON error body. Exported for
// the fleet handler.
func WriteError(w http.ResponseWriter, status int, err error) { writeError(w, status, err) }

// recoverMiddleware contains a handler panic to its own request: the
// client gets a 500 with a JSON error and the process keeps serving.
func recoverMiddleware(met *Metrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				met.Inc("rrs_http_panics_total", 1)
				// If the handler already wrote headers this is a no-op
				// on the status line, but the connection still closes
				// cleanly instead of taking the server down.
				writeError(w, http.StatusInternalServerError,
					fmt.Errorf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func handleSubmit(m *Manager, w http.ResponseWriter, r *http.Request) {
	spec, ok := ReadSpec(w, r)
	if !ok {
		return
	}
	RespondSubmit(m, w, spec)
}

// handleReady serves GET /readyz: 503 while the manager drains (or has
// closed) or while admission control is shedding, 200 otherwise. The
// split from /healthz is what lets a load balancer — or a fleet peer's
// failure detector — stop routing to a draining node that is still
// alive and finishing its backlog.
func handleReady(m *Manager, w http.ResponseWriter, r *http.Request) {
	backlog := m.queue.Len()
	switch {
	case m.Draining():
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "queue": backlog,
		})
	case m.opts.AdmissionWatermark > 0 && backlog >= m.opts.AdmissionWatermark:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "overloaded", "queue": backlog,
			"watermark": m.opts.AdmissionWatermark,
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ready", "queue": backlog,
		})
	}
}

// ReadSpec decodes a submission body, enforcing the size bound and
// strict field checking. On failure it writes the error response and
// reports ok=false. Exported for the fleet handler, which must decode
// the spec itself to route by content hash before deciding which node's
// manager the submission reaches.
func ReadSpec(w http.ResponseWriter, r *http.Request) (Spec, bool) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("spec exceeds %d bytes", tooBig.Limit))
			return Spec{}, false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
		return Spec{}, false
	}
	return spec, true
}

// RespondSubmit submits spec to m and writes the canonical HTTP
// response: 201 on acceptance, 200 on a cache hit, 429 + Retry-After on
// backpressure (full queue or shed by admission control), 503 on
// drain/shutdown. Shared by the plain handler and the fleet layer so a
// forwarded submission answers byte-identically to a local one.
func RespondSubmit(m *Manager, w http.ResponseWriter, spec Spec) {
	j, err := m.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	v := j.Snapshot()
	status := http.StatusCreated
	if v.CacheHit {
		status = http.StatusOK // answered, not created
	}
	writeJSON(w, status, v)
}

func handleList(m *Manager, w http.ResponseWriter, r *http.Request) {
	stateFilter := State(strings.ToLower(r.URL.Query().Get("state")))
	views := []JobView{}
	for _, j := range m.List() {
		v := j.Snapshot()
		if stateFilter != "" && v.State != stateFilter {
			continue
		}
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func handleGet(m *Manager, w http.ResponseWriter, r *http.Request) {
	j, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func handleResult(m *Manager, w http.ResponseWriter, r *http.Request) {
	j, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	v := j.Snapshot()
	switch v.State {
	case StateQueued, StateRunning:
		// Not ready: tell pollers to come back, carrying progress.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusAccepted, v)
	case StateDone:
		res, _ := m.CachedResult(v.Hash)
		writeJSON(w, http.StatusOK, ResultEnvelope{
			ID: v.ID, Hash: v.Hash, CacheHit: v.CacheHit, Result: res,
		})
	case StateCancelled:
		writeError(w, http.StatusGone,
			fmt.Errorf("job %s was cancelled: %s", v.ID, v.Error))
	default: // failed
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("job %s failed: %s", v.ID, v.Error))
	}
}

func handleDelete(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	if cancelled, err := m.Cancel(id); !cancelled {
		if errors.Is(err, ErrNotFound) {
			// The job vanished between Get and Cancel (concurrent DELETE).
			writeError(w, http.StatusNotFound, ErrNotFound)
			return
		}
		// Already terminal: DELETE retires the record.
		if err := m.Remove(id); err != nil {
			if errors.Is(err, ErrNotFound) {
				writeError(w, http.StatusNotFound, ErrNotFound)
				return
			}
			writeError(w, http.StatusConflict, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func handleMetrics(met *Metrics, w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "application/json") {
		format = "json"
	}
	if format == "json" {
		writeJSON(w, http.StatusOK, met.JSON())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	met.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}
