package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// A sweep is the server-side form of a whole experiment: one SweepSpec
// names a base job plus axes over Spec fields (mitigation, tracker
// size, workloads, seeds, thresholds), and the manager expands it into
// child jobs deduplicated by content hash. Children are ordinary jobs —
// they coalesce with concurrent submissions, hit the result store, are
// journaled, and (under internal/fleet) route to their ring owner by
// their own hash — so resubmitting a finished sweep is answered almost
// entirely from cache, and a kill -9 mid-sweep resumes from the
// completed children after journal replay re-expands the parent.

// ErrSweepNotFound is returned for unknown sweep ids.
var ErrSweepNotFound = errors.New("service: no such sweep")

// maxSweepChildren bounds one sweep's expansion: past it the submission
// is refused outright (HTTP 400) instead of flooding the job table.
const maxSweepChildren = 4096

// SweepAxes are the swept Spec fields. Each non-empty axis replaces its
// base field once per value; empty axes keep the base value. The
// expansion is the cartesian product of the non-empty axes, in the
// field order below with workloads innermost, so child order — and
// therefore aggregation order — is deterministic.
type SweepAxes struct {
	// Mitigations sweeps Spec.Mitigation (see MitigationNames).
	Mitigations []string `json:"mitigations,omitempty"`
	// Blacklists sweeps Spec.Blacklist, the BlockHammer tracker size.
	// Children whose mitigation is not "blockhammer" normalize the value
	// away and collapse into one job per remaining point.
	Blacklists []uint32 `json:"blacklists,omitempty"`
	// RowHammerThresholds sweeps Spec.RowHammerThreshold (Figure 10).
	RowHammerThresholds []int `json:"row_hammer_thresholds,omitempty"`
	// Scales sweeps Spec.Scale, the epoch shrink factor.
	Scales []int `json:"scales,omitempty"`
	// Seeds sweeps Spec.Seed, the synthetic-trace (attack-pattern) seed.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Workloads sweeps the workload: each entry becomes a single-workload
	// child (mixes belong in Base.Workloads with this axis empty).
	Workloads []string `json:"workloads,omitempty"`
}

// points multiplies the axis lengths (empty axes count 1). The product
// saturates at maxSweepChildren+1: lengths are >= 1 so it only grows,
// and capping inside the loop keeps a pathological request (six long
// axes fit well under the 1MB body bound) from overflowing int, wrapping
// past the expansion guard, and flooding Expand.
func (a SweepAxes) points() int {
	n := 1
	for _, l := range []int{len(a.Mitigations), len(a.Blacklists),
		len(a.RowHammerThresholds), len(a.Scales), len(a.Seeds), len(a.Workloads)} {
		if l > 0 {
			n *= l
			if n > maxSweepChildren {
				return maxSweepChildren + 1
			}
		}
	}
	return n
}

// SweepSpec declares one server-side parameter sweep: a base Spec plus
// the axes swept over it.
type SweepSpec struct {
	Base Spec      `json:"base"`
	Axes SweepAxes `json:"axes"`
}

// Hash is the sweep's content address: a hex SHA-256 of the
// hash-normalized base (TimeoutSeconds masked, like Spec.Hash) plus the
// axes. Retried POSTs of the same sweep coalesce onto the running
// parent by this hash.
func (ss SweepSpec) Hash() string {
	n := ss
	b := ss.Base.Normalize()
	b.TimeoutSeconds = 0
	n.Base = b
	buf, err := json.Marshal(n)
	if err != nil {
		panic(fmt.Sprintf("service: hashing sweep: %v", err))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// Expand returns the sweep's child specs: the cartesian product of the
// axes over the base, normalized and deduplicated by content hash in
// first-occurrence order. Expansion is deterministic — replaying the
// same SweepSpec after a crash reproduces the same children in the
// same order, which is what makes journaled sweeps resumable.
func (ss SweepSpec) Expand() ([]Spec, error) {
	if ss.Axes.points() > maxSweepChildren {
		// points saturates at maxSweepChildren+1, so the true size may be
		// far larger — report only the bound.
		return nil, fmt.Errorf("service: sweep expands to more than %d children",
			maxSweepChildren)
	}
	// orDefault shapes each axis as "sweep these values" or "keep base".
	mits := ss.Axes.Mitigations
	if len(mits) == 0 {
		mits = []string{ss.Base.Mitigation}
	}
	blacklists := ss.Axes.Blacklists
	if len(blacklists) == 0 {
		blacklists = []uint32{ss.Base.Blacklist}
	}
	trhs := ss.Axes.RowHammerThresholds
	if len(trhs) == 0 {
		trhs = []int{ss.Base.RowHammerThreshold}
	}
	scales := ss.Axes.Scales
	if len(scales) == 0 {
		scales = []int{ss.Base.Scale}
	}
	seeds := ss.Axes.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{ss.Base.Seed}
	}

	var specs []Spec
	seen := make(map[string]bool)
	add := func(child Spec) error {
		child = child.Normalize()
		h := child.Hash()
		if seen[h] {
			return nil
		}
		if err := child.Validate(); err != nil {
			return fmt.Errorf("service: sweep child %w", err)
		}
		seen[h] = true
		specs = append(specs, child)
		return nil
	}
	for _, mit := range mits {
		for _, bl := range blacklists {
			for _, trh := range trhs {
				for _, scale := range scales {
					for _, seed := range seeds {
						child := ss.Base
						child.Mitigation = mit
						child.Blacklist = bl
						child.RowHammerThreshold = trh
						child.Scale = scale
						child.Seed = seed
						if len(ss.Axes.Workloads) == 0 {
							if err := add(child); err != nil {
								return nil, err
							}
							continue
						}
						for _, w := range ss.Axes.Workloads {
							child.Workloads = []string{w}
							if err := add(child); err != nil {
								return nil, err
							}
						}
					}
				}
			}
		}
	}
	return specs, nil
}

// Validate reports why the sweep cannot run: an over-sized expansion or
// any child spec the job validator rejects.
func (ss SweepSpec) Validate() error {
	_, err := ss.Expand()
	return err
}

// Sweep is one tracked parameter sweep. The feeder/watcher goroutine
// (Manager.runSweep) owns submission and finalization; every mutable
// field is guarded by mu.
type Sweep struct {
	mu sync.Mutex

	id   string
	seq  uint64
	spec SweepSpec
	hash string

	// specs/hashes are the deterministic expansion; children is the
	// linked prefix (grows as the feeder gets each child accepted).
	specs    []Spec
	hashes   []string
	children []*Job
	// resumed maps child hashes to the jobs a journal replay re-enqueued
	// (restored sweeps only; read-only). The feeder links those jobs
	// instead of submitting: a re-enqueued child may finish before the
	// feeder reaches it, and submitting it then would count a child that
	// really re-ran as a cache hit.
	resumed map[string]*Job

	state     State
	err       string
	cancelled bool
	cacheHits int // children answered from the result store at link time

	submitted time.Time
	finished  time.Time
	done      chan struct{} // closed on reaching a terminal state
}

// ID returns the sweep's server-assigned identifier.
func (s *Sweep) ID() string { return s.id }

// Hash returns the sweep spec's content hash.
func (s *Sweep) Hash() string { return s.hash }

// Done returns a channel closed when the sweep reaches a terminal state.
func (s *Sweep) Done() <-chan struct{} { return s.done }

func (s *Sweep) isCancelled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cancelled
}

// SweepChildView is one child's line of a sweep status.
type SweepChildView struct {
	// ID is empty until the feeder has the child accepted (backpressure
	// can hold later children back while earlier ones already run).
	ID       string  `json:"id,omitempty"`
	Hash     string  `json:"hash"`
	State    State   `json:"state"`
	Progress float64 `json:"progress"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// SweepStats are aggregates rolled up over the done children, in
// expansion order — deterministic for a given sweep spec, so two runs
// of the same sweep (or a crash-resumed one) aggregate bit-identically.
type SweepStats struct {
	Results           int     `json:"results"`
	GeomeanIPC        float64 `json:"geomean_ipc,omitempty"`
	MeanIPC           float64 `json:"mean_ipc,omitempty"`
	MeanSwapsPerEpoch float64 `json:"mean_swaps_per_epoch,omitempty"`
	TotalEpochs       int64   `json:"total_epochs,omitempty"`
	TotalAccesses     int64   `json:"total_accesses,omitempty"`
}

// SweepView is the JSON projection of a sweep.
type SweepView struct {
	ID    string `json:"id"`
	Hash  string `json:"hash"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Total is the expanded (deduplicated) child count; Linked of them
	// have been accepted as jobs so far.
	Total  int `json:"total"`
	Linked int `json:"linked"`
	// Per-state child counts (unlinked children count as queued).
	Done      int `json:"done"`
	Failed    int `json:"failed,omitempty"`
	Cancelled int `json:"cancelled,omitempty"`
	Running   int `json:"running,omitempty"`
	Queued    int `json:"queued,omitempty"`
	// CacheHits counts children answered from the result store the
	// moment they were submitted — the "re-runs are nearly free" number.
	CacheHits int `json:"cache_hits"`
	// Progress is mean child progress in [0,1].
	Progress  float64          `json:"progress"`
	Stats     *SweepStats      `json:"stats,omitempty"`
	Children  []SweepChildView `json:"children,omitempty"`
	Spec      SweepSpec        `json:"spec"`
	Submitted string           `json:"submitted_at"`
	Finished  string           `json:"finished_at,omitempty"`
}

// Snapshot returns a consistent view. withChildren adds the per-child
// lines (GET /v1/sweeps/{id}); the list endpoint omits them. Children
// the feeder has not linked (or that predate a restart) are resolved
// through the manager's result store by hash, so a restored sweep still
// reports its durable children as done.
func (m *Manager) snapshotSweep(s *Sweep, withChildren bool) SweepView {
	s.mu.Lock()
	v := SweepView{
		ID:        s.id,
		Hash:      s.hash,
		State:     s.state,
		Error:     s.err,
		Total:     len(s.specs),
		Linked:    len(s.children),
		CacheHits: s.cacheHits,
		Spec:      s.spec,
		Submitted: s.submitted.UTC().Format(time.RFC3339Nano),
	}
	if !s.finished.IsZero() {
		v.Finished = s.finished.UTC().Format(time.RFC3339Nano)
	}
	children := append([]*Job(nil), s.children...)
	hashes := s.hashes
	s.mu.Unlock()

	var progress float64
	var results []sim.Result
	childViews := make([]SweepChildView, 0, len(hashes))
	for i, h := range hashes {
		cv := SweepChildView{Hash: h, State: StateQueued}
		var res sim.Result
		haveRes := false
		if i < len(children) {
			jv := children[i].Snapshot()
			cv.ID, cv.State, cv.Progress = jv.ID, jv.State, jv.Progress
			cv.CacheHit, cv.Error = jv.CacheHit, jv.Error
			if jv.State == StateDone {
				res, haveRes = m.CachedResult(h)
			}
		} else if r, ok := m.CachedResult(h); ok {
			// Not linked (yet), but the result is already held — a
			// restored sweep's durable child, or a concurrent submitter's.
			cv.State, cv.Progress, cv.CacheHit = StateDone, 1, true
			res, haveRes = r, true
		}
		switch cv.State {
		case StateDone:
			v.Done++
		case StateFailed:
			v.Failed++
		case StateCancelled:
			v.Cancelled++
		case StateRunning:
			v.Running++
		default:
			v.Queued++
		}
		progress += cv.Progress
		if haveRes {
			results = append(results, res)
		}
		childViews = append(childViews, cv)
	}
	if len(hashes) > 0 {
		v.Progress = progress / float64(len(hashes))
	}
	v.Stats = rollupStats(results)
	if withChildren {
		v.Children = childViews
	}
	return v
}

// rollupStats aggregates done-child results (nil when none are done).
func rollupStats(results []sim.Result) *SweepStats {
	if len(results) == 0 {
		return nil
	}
	st := &SweepStats{Results: len(results)}
	var ipcs []float64
	var ipcSum, swapSum float64
	for _, r := range results {
		if r.IPC > 0 {
			ipcs = append(ipcs, r.IPC)
		}
		ipcSum += r.IPC
		swapSum += r.SwapsPerEpoch
		st.TotalEpochs += int64(r.Epochs)
		st.TotalAccesses += r.Accesses
	}
	st.MeanIPC = ipcSum / float64(len(results))
	st.MeanSwapsPerEpoch = swapSum / float64(len(results))
	if len(ipcs) > 0 {
		st.GeomeanIPC = stats.GeoMean(ipcs)
	}
	return st
}

func (m *Manager) registerSweepMetrics() {
	for name, help := range map[string]string{
		"rrs_sweeps_submitted_total":         "Sweeps accepted by POST /v1/sweeps or SubmitSweep.",
		"rrs_sweeps_coalesced_total":         "Sweep submissions answered by an already-running sweep with the same spec hash.",
		"rrs_sweeps_done_total":              "Sweeps whose children all finished with a result.",
		"rrs_sweeps_failed_total":            "Sweeps with at least one failed or cancelled child.",
		"rrs_sweeps_cancelled_total":         "Sweeps cancelled before completing.",
		"rrs_sweeps_restored_total":          "Sweeps reconstructed from the journal at startup.",
		"rrs_sweep_children_total":           "Child jobs expanded from accepted sweeps (after hash dedup).",
		"rrs_sweep_children_cached_total":    "Sweep children answered from the result store at submission.",
		"rrs_sweep_children_coalesced_total": "Sweep children answered by an already queued or running job.",
	} {
		m.met.Counter(name, help)
	}
	m.met.Gauge("rrs_sweeps_active", "Sweeps currently expanding or waiting on children.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.sweepInflight))
		})
}

// SubmitSweep validates and expands ss, journals the parent, and starts
// the feeder/watcher goroutine that submits each child (with
// backpressure: a sweep may be far larger than the queue) and finalizes
// the aggregate once every child is terminal. A hash equal to a running
// sweep's coalesces onto it (created=false) — the retried-POST
// idempotency children already have, lifted to the parent. A hash equal
// to a finished sweep's starts a new sweep whose children are answered
// from the result store.
func (m *Manager) SubmitSweep(ss SweepSpec) (sw *Sweep, created bool, err error) {
	if m.opts.ForceParanoid {
		ss.Base.Paranoid = true
	}
	specs, err := ss.Expand()
	if err != nil {
		return nil, false, err
	}
	hash := ss.Hash()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false, ErrClosed
	}
	if m.draining {
		m.mu.Unlock()
		return nil, false, ErrDraining
	}
	if prior, ok := m.sweepInflight[hash]; ok {
		m.mu.Unlock()
		m.met.Inc("rrs_sweeps_coalesced_total", 1)
		return prior, false, nil
	}
	m.sweepSeq++
	id := fmt.Sprintf("sweep-%06d", m.sweepSeq)
	if m.opts.NodeID != "" {
		id = m.opts.NodeID + "." + id
	}
	sw = &Sweep{
		id:        id,
		seq:       m.sweepSeq,
		spec:      ss,
		hash:      hash,
		specs:     specs,
		hashes:    specHashes(specs),
		state:     StateRunning,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	m.sweeps[sw.id] = sw
	m.sweepInflight[hash] = sw
	m.mu.Unlock()

	m.met.Inc("rrs_sweeps_submitted_total", 1)
	m.met.Inc("rrs_sweep_children_total", int64(len(specs)))
	m.journal(sweepAcceptedRecord(sw))
	m.sweepWG.Add(1)
	go m.runSweep(sw)
	return sw, true, nil
}

func specHashes(specs []Spec) []string {
	hs := make([]string, len(specs))
	for i, sp := range specs {
		hs[i] = sp.Hash()
	}
	return hs
}

// runSweep is the per-sweep feeder and watcher. The feed half submits
// each child, retrying queue backpressure — the journaled parent makes
// abandoning on shutdown safe, replay resumes the expansion. The watch
// half waits for every linked child's terminal state and finalizes.
func (m *Manager) runSweep(sw *Sweep) {
	defer m.sweepWG.Done()
feed:
	for i, spec := range sw.specs {
		for {
			if sw.isCancelled() {
				break feed
			}
			j, err := sw.resumed[sw.hashes[i]], error(nil)
			if j == nil {
				j, err = m.submitSweepChild(spec)
			}
			if err == nil {
				sw.mu.Lock()
				sw.children = append(sw.children, j)
				cancelled := sw.cancelled
				sw.mu.Unlock()
				if cancelled {
					// CancelSweep may have snapshotted the children before
					// this link and missed the job we just submitted; cancel
					// it here so a cancelled sweep never runs an extra child.
					m.Cancel(j.ID())
					break feed
				}
				if v := j.Snapshot(); v.CacheHit {
					sw.mu.Lock()
					sw.cacheHits++
					sw.mu.Unlock()
					m.met.Inc("rrs_sweep_children_cached_total", 1)
				}
				break
			}
			switch {
			case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded):
				// The queue is smaller than the sweep; wait for workers
				// to make room rather than dropping the child.
				time.Sleep(2 * time.Millisecond)
			case errors.Is(err, ErrClosed), errors.Is(err, ErrDraining):
				// Process going down. Leave the sweep unfinished: its
				// accepted record has no terminal line, so the next
				// startup's replay re-expands and resumes it.
				return
			default:
				// A child this build refuses (possible only for a journal
				// from a different build, since Expand validated at
				// submission). Fail the sweep rather than loop forever.
				sw.mu.Lock()
				if sw.err == "" {
					sw.err = fmt.Sprintf("child %s: %v", spec.Hash()[:12], err)
				}
				sw.mu.Unlock()
				break feed
			}
		}
	}
	sw.resumed = nil // feeding is over; drop the replay's job index
	sw.mu.Lock()
	children := append([]*Job(nil), sw.children...)
	sw.mu.Unlock()
	for _, j := range children {
		<-j.Done()
	}
	m.finishSweep(sw)
}

// submitSweepChild submits one expanded child, counting coalesced
// acceptances, and marks fresh jobs as sweep children so they run
// through Options.RunChild (the fleet's by-hash routing seam).
func (m *Manager) submitSweepChild(spec Spec) (*Job, error) {
	j, coalesced, err := m.submit(spec, true)
	if err != nil {
		return nil, err
	}
	if coalesced {
		m.met.Inc("rrs_sweep_children_coalesced_total", 1)
	}
	return j, nil
}

// finishSweep derives the sweep's terminal state from its children and
// journals it — withheld during a drain, like job terminals, so the
// next startup resumes the sweep instead of trusting a state reached by
// drain-cancelled children.
func (m *Manager) finishSweep(sw *Sweep) {
	state := StateDone
	var errMsg string
	sw.mu.Lock()
	cancelled := sw.cancelled
	errMsg = sw.err
	children := append([]*Job(nil), sw.children...)
	total := len(sw.specs)
	sw.mu.Unlock()

	if errMsg != "" || len(children) < total {
		state = StateFailed
	}
	for _, j := range children {
		v := j.Snapshot()
		if v.State != StateDone && state == StateDone {
			state = StateFailed
			if errMsg == "" {
				errMsg = fmt.Sprintf("child %s %s: %s", v.ID, v.State, v.Error)
			}
		}
	}
	if cancelled {
		state, errMsg = StateCancelled, "cancelled by request"
	}

	sw.mu.Lock()
	if sw.state.terminal() {
		sw.mu.Unlock()
		return
	}
	sw.state = state
	sw.err = errMsg
	sw.finished = time.Now()
	sw.mu.Unlock()

	m.mu.Lock()
	if m.sweepInflight[sw.hash] == sw {
		delete(m.sweepInflight, sw.hash)
	}
	draining := m.draining
	m.mu.Unlock()
	if !draining {
		m.journal(sweepTerminalRecord(sw))
	}
	switch state {
	case StateDone:
		m.met.Inc("rrs_sweeps_done_total", 1)
	case StateCancelled:
		m.met.Inc("rrs_sweeps_cancelled_total", 1)
	default:
		m.met.Inc("rrs_sweeps_failed_total", 1)
	}
	close(sw.done)
}

// GetSweep returns a sweep by id.
func (m *Manager) GetSweep(id string) (*Sweep, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sw, ok := m.sweeps[id]
	return sw, ok
}

// ListSweeps returns all tracked sweeps in deterministic submission
// order (seq, then id — the same tie-break as Manager.List).
func (m *Manager) ListSweeps() []*Sweep {
	m.mu.Lock()
	sweeps := make([]*Sweep, 0, len(m.sweeps))
	for _, sw := range m.sweeps {
		sweeps = append(sweeps, sw)
	}
	m.mu.Unlock()
	sortBySeqThenID(sweeps, func(s *Sweep) (uint64, string) { return s.seq, s.id })
	return sweeps
}

// CancelSweep stops a running sweep: the feeder stops expanding and
// every linked child is cancelled (including for submitters that
// coalesced onto those children). Cancelling a terminal sweep reports
// ok=false.
func (m *Manager) CancelSweep(id string) (ok bool, err error) {
	sw, found := m.GetSweep(id)
	if !found {
		return false, ErrSweepNotFound
	}
	sw.mu.Lock()
	if sw.state.terminal() {
		sw.mu.Unlock()
		return false, nil
	}
	sw.cancelled = true
	children := append([]*Job(nil), sw.children...)
	sw.mu.Unlock()
	for _, j := range children {
		m.Cancel(j.ID())
	}
	return true, nil
}

// RemoveSweep deletes a terminal sweep's record. The children's job
// records stay — they are independently addressable and removable.
func (m *Manager) RemoveSweep(id string) error {
	sw, found := m.GetSweep(id)
	if !found {
		return ErrSweepNotFound
	}
	sw.mu.Lock()
	state := sw.state
	sw.mu.Unlock()
	if !state.terminal() {
		return fmt.Errorf("service: sweep %s is %s; cancel it first", id, state)
	}
	m.mu.Lock()
	delete(m.sweeps, id)
	m.mu.Unlock()
	m.journal(journalRecord{Type: recSweepRemoved, ID: id})
	return nil
}

// SweepResults collects the results of a sweep's done children, keyed
// by child content hash — one payload instead of a poll per child. The
// lookup goes through the manager's result store, so it also serves
// restored sweeps whose children completed before a restart.
func (m *Manager) SweepResults(sw *Sweep) map[string]sim.Result {
	sw.mu.Lock()
	hashes := sw.hashes
	sw.mu.Unlock()
	out := make(map[string]sim.Result, len(hashes))
	for _, h := range hashes {
		if res, ok := m.CachedResult(h); ok {
			out[h] = res
		}
	}
	return out
}

// RunSweep submits ss and waits for every child — the in-process twin
// of Client.RunSweep, with the same contract: the results of the done
// children keyed by child content hash, plus an error when the sweep
// did not finish done. On ctx expiry the sweep is cancelled and only
// ctx's error is returned.
func (m *Manager) RunSweep(ctx context.Context, ss SweepSpec) (map[string]sim.Result, error) {
	sw, _, err := m.SubmitSweep(ss)
	if err != nil {
		return nil, err
	}
	select {
	case <-sw.Done():
	case <-ctx.Done():
		m.CancelSweep(sw.ID())
		return nil, ctx.Err()
	}
	res := m.SweepResults(sw)
	sw.mu.Lock()
	state, errMsg := sw.state, sw.err
	sw.mu.Unlock()
	if state != StateDone {
		return res, fmt.Errorf("service: sweep %s %s: %s", sw.ID(), state, errMsg)
	}
	return res, nil
}

// restoreSweep rebuilds one journaled sweep at startup. Terminal sweeps
// come back as static records; pending ones re-expand and resume (or
// fail, if their spec no longer hashes to the recorded hash) —
// children that finished before the crash are answered from the
// replayed result store (cache hits), only unfinished ones run, as the
// jobs Restore re-enqueued (requeued, by hash).
func (m *Manager) restoreSweep(rs *ReplayedSweep, requeued map[string]*Job) error {
	specs, err := rs.Spec.Expand()
	if err != nil {
		return fmt.Errorf("service: sweep %s replay: %w", rs.ID, err)
	}
	sw := &Sweep{
		id:        rs.ID,
		seq:       rs.Seq,
		spec:      rs.Spec,
		hash:      rs.Hash,
		specs:     specs,
		hashes:    specHashes(specs),
		state:     StateRunning,
		err:       rs.Error,
		submitted: rs.Submitted,
		finished:  rs.Finished,
		done:      make(chan struct{}),
		resumed:   requeued,
	}
	if sw.hash == "" {
		sw.hash = rs.Spec.Hash()
	}
	terminal := rs.State.terminal()
	if terminal {
		sw.state = rs.State
	}
	// A pending record whose spec decodes to a different hash carried a
	// field this build no longer has; resuming it would run a different
	// sweep under the recorded hash, so it fails instead.
	stale := !terminal && sw.hash != rs.Spec.Hash()
	if stale {
		sw.err = fmt.Sprintf("journal replay: sweep spec no longer hashes to its recorded hash %s", sw.hash)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if _, exists := m.sweeps[sw.id]; exists {
		m.mu.Unlock()
		return fmt.Errorf("service: journal sweep %s collides with a live sweep", sw.id)
	}
	m.sweeps[sw.id] = sw
	if sw.seq > m.sweepSeq {
		m.sweepSeq = sw.seq
	}
	if !terminal {
		if _, dup := m.sweepInflight[sw.hash]; !dup {
			m.sweepInflight[sw.hash] = sw
		}
	}
	m.mu.Unlock()
	m.met.Inc("rrs_sweeps_restored_total", 1)

	if terminal {
		close(sw.done)
		return nil
	}
	if stale {
		m.finishSweep(sw)
		return nil
	}
	m.sweepWG.Add(1)
	go m.runSweep(sw)
	return nil
}
