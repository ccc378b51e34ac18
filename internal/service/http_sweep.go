package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/sim"
)

// sweepPrefix roots the sweep API. See Handler for the route table.
const sweepPrefix = "/v1/sweeps"

// SweepResultsEnvelope is the one-payload answer of
// GET /v1/sweeps/{id}/results: every held child result keyed by child
// content hash. Keys are hashes, not job ids, so the payload is stable
// across restarts and across the fleet (ids are node-scoped; hashes are
// global).
type SweepResultsEnvelope struct {
	ID      string                `json:"id"`
	Hash    string                `json:"hash"`
	State   State                 `json:"state"`
	Error   string                `json:"error,omitempty"`
	Total   int                   `json:"total"`
	Results map[string]sim.Result `json:"results"`
}

// ReadSweepSpec decodes a sweep submission body with the same size
// bound and strict field checking as ReadSpec. Exported for the fleet
// handler.
func ReadSweepSpec(w http.ResponseWriter, r *http.Request) (SweepSpec, bool) {
	var ss SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ss); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("sweep spec exceeds %d bytes", tooBig.Limit))
			return SweepSpec{}, false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding sweep spec: %w", err))
		return SweepSpec{}, false
	}
	return ss, true
}

// RespondSubmitSweep submits ss to m and writes the canonical response:
// 201 on acceptance, 200 when the submission coalesced onto a running
// sweep with the same hash, 503 on drain/shutdown, 400 on an invalid or
// oversized expansion. Exported so the fleet handler answers
// byte-identically.
func RespondSubmitSweep(m *Manager, w http.ResponseWriter, ss SweepSpec) {
	sw, created, err := m.SubmitSweep(ss)
	switch {
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
	status := http.StatusCreated
	if !created {
		status = http.StatusOK // coalesced onto the running sweep
	}
	writeJSON(w, status, m.snapshotSweep(sw, false))
}

func handleSubmitSweep(m *Manager, w http.ResponseWriter, r *http.Request) {
	ss, ok := ReadSweepSpec(w, r)
	if !ok {
		return
	}
	RespondSubmitSweep(m, w, ss)
}

func handleListSweeps(m *Manager, w http.ResponseWriter, r *http.Request) {
	views := []SweepView{}
	for _, sw := range m.ListSweeps() {
		views = append(views, m.snapshotSweep(sw, false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": views})
}

func handleGetSweep(m *Manager, w http.ResponseWriter, r *http.Request) {
	sw, ok := m.GetSweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrSweepNotFound)
		return
	}
	writeJSON(w, http.StatusOK, m.snapshotSweep(sw, true))
}

func handleSweepResults(m *Manager, w http.ResponseWriter, r *http.Request) {
	sw, ok := m.GetSweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrSweepNotFound)
		return
	}
	v := m.snapshotSweep(sw, false)
	if !v.State.terminal() {
		// Still expanding or waiting on children: come back, carrying the
		// aggregate progress so pollers can display done/total.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusAccepted, v)
		return
	}
	writeJSON(w, http.StatusOK, SweepResultsEnvelope{
		ID:      v.ID,
		Hash:    v.Hash,
		State:   v.State,
		Error:   v.Error,
		Total:   v.Total,
		Results: m.SweepResults(sw),
	})
}

func handleDeleteSweep(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sw, ok := m.GetSweep(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrSweepNotFound)
		return
	}
	if cancelled, err := m.CancelSweep(id); !cancelled {
		if errors.Is(err, ErrSweepNotFound) {
			writeError(w, http.StatusNotFound, ErrSweepNotFound)
			return
		}
		// Already terminal: DELETE retires the record.
		if err := m.RemoveSweep(id); err != nil {
			if errors.Is(err, ErrSweepNotFound) {
				writeError(w, http.StatusNotFound, ErrSweepNotFound)
				return
			}
			writeError(w, http.StatusConflict, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, m.snapshotSweep(sw, false))
}

// handleResultByHash serves GET /v1/results/{hash}: the durable result
// store addressed by content hash instead of job id. This is what lets
// a client recover from a lost job id (e.g. a fleet owner died and a
// peer holds the replica) without resubmitting finished work.
func handleResultByHash(m *Manager, w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	res, ok := m.CachedResult(hash)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("service: no result for hash %s", hash))
		return
	}
	writeJSON(w, http.StatusOK, ResultEnvelope{
		Hash: hash, CacheHit: true, Result: res,
	})
}
