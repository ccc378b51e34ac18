package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// State is a job's lifecycle stage. Transitions: queued → running →
// done | failed | cancelled; a queued job may also go straight to
// cancelled (DELETE before a worker claims it), a cache hit is born
// done, and a transiently failed run may loop running → queued up to the
// retry bound before settling.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether no further transition can happen.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ErrNotFound is returned for unknown job ids.
var ErrNotFound = errors.New("service: no such job")

// Job is one tracked simulation. All mutable fields are guarded by mu;
// readers use Snapshot.
type Job struct {
	mu sync.Mutex

	id   string
	seq  uint64 // submission order, for stable listings
	spec Spec   // normalized
	hash string

	state    State
	progress float64 // 0..1, driven by the sim progress hook
	cacheHit bool
	child    bool // expanded from a sweep: runs through Options.RunChild
	attempts int  // completed run attempts (retries = attempts - 1)
	err      string
	result   *sim.Result
	// finishing marks a claimed terminal transition whose record is
	// still being journaled. It bars every other transition; readers
	// keep seeing the old state until finish publishes the new one.
	finishing bool

	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel context.CancelFunc // non-nil while cancellable
	done   chan struct{}      // closed on reaching a terminal state
}

// ID returns the job's server-assigned identifier.
func (j *Job) ID() string { return j.id }

// Hash returns the job's spec content hash.
func (j *Job) Hash() string { return j.hash }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the finished result. ok is false unless the job is
// done.
func (j *Job) Result() (sim.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return sim.Result{}, false
	}
	return *j.result, true
}

// JobView is the JSON projection of a job.
type JobView struct {
	ID       string  `json:"id"`
	Hash     string  `json:"hash"`
	State    State   `json:"state"`
	Progress float64 `json:"progress"`
	CacheHit bool    `json:"cache_hit"`
	// Attempts counts runs of this job so far (0 while it has never been
	// claimed; 2+ means automatic retries after transient failures).
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// Paranoid mirrors Spec.Paranoid at the top level so dashboards can
	// tell self-verifying runs apart without digging into the spec.
	Paranoid  bool   `json:"paranoid,omitempty"`
	Spec      Spec   `json:"spec"`
	Submitted string `json:"submitted_at"`
	Started   string `json:"started_at,omitempty"`
	Finished  string `json:"finished_at,omitempty"`
	// RunSeconds is wall-clock simulation time for finished jobs.
	RunSeconds float64 `json:"run_seconds,omitempty"`
	// Phase is the human-readable stage of the job ("queued",
	// "simulating", "cached", "done", "failed", "cancelled").
	Phase string `json:"phase,omitempty"`
	// Epoch and TotalEpochs report simulated-epoch progress for
	// epoch-bounded runs (Spec.Epochs > 0). Such runs are cycle-bounded,
	// and epochs are fixed-length cycle spans, so the cycle-based
	// progress fraction maps linearly onto completed epochs.
	Epoch       int64 `json:"epoch,omitempty"`
	TotalEpochs int64 `json:"total_epochs,omitempty"`
}

// Snapshot returns a consistent copy for serialization.
func (j *Job) Snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		Hash:      j.hash,
		State:     j.state,
		Progress:  j.progress,
		CacheHit:  j.cacheHit,
		Attempts:  j.attempts,
		Error:     j.err,
		Paranoid:  j.spec.Paranoid,
		Spec:      j.spec,
		Submitted: j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
		if !j.started.IsZero() {
			v.RunSeconds = j.finished.Sub(j.started).Seconds()
		}
	}
	switch {
	case j.state == StateRunning:
		v.Phase = "simulating"
	case j.cacheHit:
		v.Phase = "cached"
	default:
		v.Phase = string(j.state)
	}
	if n := int64(j.spec.Epochs); n > 0 {
		v.TotalEpochs = n
		v.Epoch = int64(j.progress * float64(n))
		if v.Epoch > n {
			v.Epoch = n
		}
	}
	return v
}

// Options sizes the manager.
type Options struct {
	// Workers is the worker-pool size (default GOMAXPROCS — each
	// simulation is single-threaded, so one worker per scheduler slot
	// saturates the host without oversubscribing it).
	Workers int
	// QueueDepth bounds the backlog of accepted-but-unstarted jobs
	// (default 64); past it, Submit fails fast with ErrQueueFull.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache (default
	// 256; 0 keeps the default, negative disables caching).
	CacheEntries int
	// DefaultTimeout bounds each job's run unless its spec says
	// otherwise (0 = no limit).
	DefaultTimeout time.Duration
	// JobRetries bounds automatic re-runs of a job whose run failed
	// transiently (resilience.IsTransient). Deterministic simulation
	// errors, timeouts and panics are never retried. Default 2;
	// negative disables retries.
	JobRetries int
	// Journal, when non-nil, receives an append-only record of accepted
	// specs and terminal states, making accepted work durable across
	// process crashes (see OpenJournal / Restore).
	Journal *Journal
	// ForceParanoid turns on Spec.Paranoid for every submitted job, so an
	// operator can run a whole server in self-verifying mode without
	// clients opting in. Forcing happens before hashing: a forced job
	// caches under the paranoid spec, and submissions that already asked
	// for paranoid coalesce with it.
	ForceParanoid bool
	// DefaultSimWorkers, when positive, sets Spec.Workers for every
	// submitted job that left it 0 — an operator switch that runs the
	// whole server in the bank-sharded parallel mode (see
	// sim.Options.Workers). Like ForceParanoid it applies before
	// hashing: parallel results cache under the parallel mode's hash,
	// never shadowing sequential ones. Distinct from Options.Workers,
	// the job pool size: one sets goroutines per simulation, the other
	// simulations in flight.
	DefaultSimWorkers int
	// NodeID, when non-empty, prefixes job ids ("node1.job-000001"
	// instead of "job-000001") so ids are globally unique across a fleet
	// and carry their home node — internal/fleet routes status and
	// result polls by this prefix. Single-node deployments leave it
	// empty and keep the bare id format.
	NodeID string
	// AdmissionWatermark sheds load before the queue is hard-full: once
	// the backlog has reached it, Submit refuses work that would need a
	// simulation with ErrOverloaded (HTTP 429 + Retry-After). Cache
	// hits and coalesced submissions are still answered — they cost no
	// worker. 0 disables shedding; the hard QueueDepth bound still
	// applies.
	AdmissionWatermark int
	// Run overrides the simulation executor (nil = the built-in engine).
	// Chaos tests wrap an executor with injected faults here; it is also
	// the seam for alternative backends.
	Run RunFunc
	// RunChild, when non-nil, executes jobs expanded from a sweep
	// instead of Run. The fleet layer hooks per-child rendezvous routing
	// here (children route by their own content hash, so one sweep
	// spreads across the fleet); nil runs children through Run.
	RunChild RunFunc
	// OnResult, when non-nil, observes every result this manager computes
	// (or accepts as a work-stealing donation) the moment it enters the
	// result cache, already Timeline- and Mitigation-stripped — exactly
	// the bytes a peer's cache lookup would see. The fleet layer hooks
	// result replication here. It is called from worker goroutines and
	// must not block; it is NOT called for cache hits, journal replays, or
	// results inserted via InsertCached (a replica must never re-replicate
	// from the receiving side).
	OnResult func(hash string, res sim.Result)
	// Metrics receives the service metrics (nil = a private registry).
	Metrics *Metrics
}

// Manager owns the queue, worker pool, job table and result cache.
type Manager struct {
	opts  Options
	queue *fifo
	cache *resultCache
	met   *Metrics

	mu         sync.Mutex
	jobs       map[string]*Job
	inflight   map[string]*Job // hash → queued/running job, for submit coalescing
	doneByHash map[string]*Job // hash → done job holding a result, for ResultByHash
	seq        uint64
	closed     bool
	draining   bool // drain mode: intake refused, cancellations journal-requeue

	// Sweep orchestration state: the tracked sweeps, the hash →
	// running-sweep coalescing index, and the id sequence. Each running
	// sweep owns one feeder/watcher goroutine counted by sweepWG.
	sweeps        map[string]*Sweep
	sweepInflight map[string]*Sweep
	sweepSeq      uint64
	sweepWG       sync.WaitGroup

	busy    int64 // workers mid-run, under mu
	workers sync.WaitGroup

	// lastRun holds hardware-level aggregates folded from the most
	// recently completed simulation's timeline, read by gauge callbacks
	// at scrape time.
	lastRunMu sync.Mutex
	lastRun   lastRunStats

	// runJob is the simulation entry point; tests substitute a stub to
	// make scheduling behaviour observable without real simulations.
	// runChild, when non-nil, replaces it for sweep-expanded jobs.
	runJob   RunFunc
	runChild RunFunc
}

// lastRunStats are per-run occupancy/stall aggregates derived from the
// observability histograms of the last finished simulation.
type lastRunStats struct {
	ritOccMean, ritOccPeak float64
	hrtOccMean, hrtOccPeak float64
	stallMean              float64
}

// RunFunc executes one simulation on behalf of the manager. Errors it
// returns are classified by resilience.IsTransient to decide whether
// the job is retried.
type RunFunc func(ctx context.Context, spec Spec, progress func(done, total int64)) (sim.Result, error)

// NewManager builds and starts a manager; callers must Shutdown it.
func NewManager(opts Options) *Manager {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	switch {
	case opts.CacheEntries == 0:
		opts.CacheEntries = 256
	case opts.CacheEntries < 0:
		opts.CacheEntries = 0
	}
	switch {
	case opts.JobRetries == 0:
		opts.JobRetries = 2
	case opts.JobRetries < 0:
		opts.JobRetries = 0
	}
	if opts.Metrics == nil {
		opts.Metrics = NewMetrics()
	}
	m := &Manager{
		opts:          opts,
		queue:         newFIFO(opts.QueueDepth),
		cache:         newResultCache(opts.CacheEntries),
		met:           opts.Metrics,
		jobs:          make(map[string]*Job),
		inflight:      make(map[string]*Job),
		doneByHash:    make(map[string]*Job),
		sweeps:        make(map[string]*Sweep),
		sweepInflight: make(map[string]*Sweep),
		runJob:        RunSpec,
	}
	if opts.Run != nil {
		m.runJob = opts.Run
	}
	m.runChild = opts.RunChild
	m.registerMetrics()
	for i := 0; i < opts.Workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	return m
}

// RunSpec is the production runJob: compile the spec and run the engine.
// Every run carries a histogram-only recorder (RingSize < 0 disables the
// per-event ring): the manager folds the occupancy/stall aggregates into
// its Prometheus registry and strips the timeline before the result is
// cached, so client payloads and the content-addressed cache are
// byte-identical to an unobserved run. Exported so wrappers around
// Options.Run (the fleet's cache fan-out, chaos injectors) can fall
// through to the built-in engine.
func RunSpec(ctx context.Context, spec Spec, progress func(done, total int64)) (sim.Result, error) {
	opts, err := spec.Options()
	if err != nil {
		return sim.Result{}, err
	}
	opts.Context = ctx
	opts.Progress = progress
	opts.Events = &obs.Config{RingSize: -1}
	return sim.Run(opts)
}

func (m *Manager) registerMetrics() {
	for name, help := range map[string]string{
		"rrs_jobs_submitted_total":        "Jobs accepted by POST /v1/jobs or Submit.",
		"rrs_jobs_done_total":             "Jobs that finished with a result (cache hits included).",
		"rrs_jobs_failed_total":           "Jobs that ended in error (timeouts included).",
		"rrs_jobs_cancelled_total":        "Jobs cancelled before completing.",
		"rrs_jobs_rejected_total":         "Submissions refused by a full queue.",
		"rrs_jobs_shed_total":             "Submissions shed by admission control (backlog over the watermark).",
		"rrs_jobs_requeued_total":         "Jobs whose terminal record was withheld during a drain so a restart's journal replay re-enqueues them.",
		"rrs_jobs_coalesced_total":        "Submissions answered by an already queued or running job with the same spec hash.",
		"rrs_jobs_restored_total":         "Jobs restored from the journal at startup (pending re-enqueues plus terminal records).",
		"rrs_cache_hits_total":            "Submissions answered from the result cache.",
		"rrs_cache_misses_total":          "Submissions that required a simulation.",
		"rrs_runs_started_total":          "Simulations handed to a worker.",
		"rrs_job_retries_total":           "Automatic re-runs of jobs whose run failed transiently.",
		"rrs_worker_panics_total":         "Panics recovered inside a worker's simulation run.",
		"rrs_http_panics_total":           "Panics recovered by the HTTP middleware.",
		"rrs_journal_errors_total":        "Journal append failures (the job proceeds; durability is degraded).",
		"rrs_journal_replayed_jobs_total": "Jobs reconstructed from the journal during startup replay.",
		"rrs_journal_torn_lines_total":    "Corrupt or torn journal lines dropped during replay (a kill -9 mid-append leaves at most one).",
		"rrs_journal_compactions_total":   "Journal compactions completed (one per successful startup replay).",
		"rrs_sim_epochs_total":            "Simulated epochs completed across all finished runs.",
		"rrs_sim_swaps_total":             "RRS row swaps performed across all finished runs.",
		"rrs_sim_accesses_total":          "Memory accesses simulated across all finished runs.",
		"rrs_sim_stall_cycles_total":      "Bus cycles accesses spent queued behind a busy bank or channel, summed across finished runs.",
		"rrs_sim_swap_block_cycles_total": "Bus cycles the channel was blocked by swap/reswap operations, summed across finished runs.",
	} {
		m.met.Counter(name, help)
	}
	m.met.Gauge("rrs_queue_depth", "Jobs accepted but not yet claimed by a worker.",
		func() float64 { return float64(m.queue.Len()) })
	m.met.Gauge("rrs_workers", "Size of the worker pool.",
		func() float64 { return float64(m.opts.Workers) })
	m.met.Gauge("rrs_workers_busy", "Workers currently mid-simulation.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.busy)
		})
	m.met.Gauge("rrs_worker_utilization", "Busy workers over pool size (0..1).",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.busy) / float64(m.opts.Workers)
		})
	m.met.Gauge("rrs_cache_entries", "Results currently cached.",
		func() float64 { return float64(m.cache.Len()) })
	m.registerSweepMetrics()
	for _, s := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		state := s
		m.met.Gauge("rrs_jobs_"+string(state),
			fmt.Sprintf("Tracked jobs in state %q.", state),
			func() float64 { return float64(m.countState(state)) })
	}
	for name, read := range map[string]struct {
		help string
		fn   func(s lastRunStats) float64
	}{
		"rrs_last_run_rit_occupancy_mean": {"Mean per-bank RIT tuple count at epoch boundaries, last finished run.",
			func(s lastRunStats) float64 { return s.ritOccMean }},
		"rrs_last_run_rit_occupancy_peak": {"Peak per-bank RIT tuple count at epoch boundaries, last finished run.",
			func(s lastRunStats) float64 { return s.ritOccPeak }},
		"rrs_last_run_hrt_occupancy_mean": {"Mean per-bank HRT row count at epoch boundaries, last finished run.",
			func(s lastRunStats) float64 { return s.hrtOccMean }},
		"rrs_last_run_hrt_occupancy_peak": {"Peak per-bank HRT row count at epoch boundaries, last finished run.",
			func(s lastRunStats) float64 { return s.hrtOccPeak }},
		"rrs_last_run_stall_cycles_mean": {"Mean queueing stall per delayed access in bus cycles, last finished run.",
			func(s lastRunStats) float64 { return s.stallMean }},
	} {
		fn := read.fn
		m.met.Gauge(name, read.help, func() float64 {
			m.lastRunMu.Lock()
			defer m.lastRunMu.Unlock()
			return fn(m.lastRun)
		})
	}
}

// foldTimeline absorbs a finished run's observability aggregates into
// the registry — counters accumulate across runs, the last-run gauges
// are replaced — so the timeline itself can be dropped before the
// result enters the cache and the job table.
func (m *Manager) foldTimeline(tl *obs.Timeline) {
	if tl == nil { // stubbed RunFunc, or a future events-off path
		return
	}
	var swaps int64
	for _, s := range tl.Samples {
		swaps += s.Swaps
	}
	m.met.Inc("rrs_sim_epochs_total", int64(len(tl.Samples)))
	m.met.Inc("rrs_sim_swaps_total", swaps)
	m.met.Inc("rrs_sim_accesses_total", tl.Histograms[obs.HistAccess.String()].Count)
	m.met.Inc("rrs_sim_stall_cycles_total", tl.Histograms[obs.HistStall.String()].Sum)
	m.met.Inc("rrs_sim_swap_block_cycles_total", tl.Histograms[obs.HistSwapBlock.String()].Sum)

	mean := func(h obs.HistView) float64 {
		if h.Count == 0 {
			return 0
		}
		return float64(h.Sum) / float64(h.Count)
	}
	rit := tl.Histograms[obs.HistRITOcc.String()]
	hrt := tl.Histograms[obs.HistHRTOcc.String()]
	stall := tl.Histograms[obs.HistStall.String()]
	m.lastRunMu.Lock()
	m.lastRun = lastRunStats{
		ritOccMean: mean(rit),
		ritOccPeak: float64(rit.Max),
		hrtOccMean: mean(hrt),
		hrtOccPeak: float64(hrt.Max),
		stallMean:  mean(stall),
	}
	m.lastRunMu.Unlock()
}

func (m *Manager) countState(s State) int {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	n := 0
	for _, j := range jobs {
		j.mu.Lock()
		if j.state == s {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Metrics exposes the registry (for the HTTP layer).
func (m *Manager) Metrics() *Metrics { return m.met }

// journal appends rec if a journal is configured, degrading to a metric
// on failure — a full disk must not take the serving path down with it.
func (m *Manager) journal(rec journalRecord) {
	if m.opts.Journal == nil {
		return
	}
	if err := m.opts.Journal.append(rec); err != nil {
		m.met.Inc("rrs_journal_errors_total", 1)
	}
}

// Submit validates, hashes and enqueues spec. A cache hit returns a job
// already in StateDone carrying the cached result; a hash equal to a
// queued or running job's coalesces onto that job (which is what makes a
// client's retried POST after a dropped response idempotent); otherwise
// the job is queued FIFO. ErrQueueFull and ErrClosed report backpressure
// and shutdown.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	j, _, err := m.submit(spec, false)
	return j, err
}

// submit is Submit plus the sweep feeder's entry point: child marks the
// job as sweep-expanded (it runs through Options.RunChild), and the
// returned coalesced flag tells the feeder whether an existing job
// absorbed the submission.
func (m *Manager) submit(spec Spec, child bool) (j *Job, coalesced bool, err error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	if m.opts.ForceParanoid {
		spec.Paranoid = true
	}
	if m.opts.DefaultSimWorkers > 0 && spec.Workers == 0 {
		spec.Workers = m.opts.DefaultSimWorkers
	}
	norm := spec.Normalize()
	hash := norm.Hash()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false, ErrClosed
	}
	if m.draining {
		m.mu.Unlock()
		return nil, false, ErrDraining
	}
	if prior, ok := m.inflight[hash]; ok {
		m.mu.Unlock()
		m.met.Inc("rrs_jobs_submitted_total", 1)
		m.met.Inc("rrs_jobs_coalesced_total", 1)
		return prior, true, nil
	}
	m.seq++
	id := fmt.Sprintf("job-%06d", m.seq)
	if m.opts.NodeID != "" {
		id = m.opts.NodeID + "." + id
	}
	j = &Job{
		id:        id,
		seq:       m.seq,
		spec:      norm,
		hash:      hash,
		child:     child,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	m.mu.Unlock()

	m.met.Inc("rrs_jobs_submitted_total", 1)

	if res, ok := m.cache.Get(j.hash); ok {
		m.met.Inc("rrs_cache_hits_total", 1)
		m.met.Inc("rrs_jobs_done_total", 1)
		j.state = StateDone
		j.cacheHit = true
		j.progress = 1
		j.result = &res
		j.finished = time.Now()
		close(j.done)
		// Cache-hit jobs are not journaled: their result is already
		// durable under the record of the job that computed it.
		m.mu.Lock()
		m.jobs[j.id] = j
		m.doneByHash[j.hash] = j
		m.mu.Unlock()
		return j, false, nil
	}
	m.met.Inc("rrs_cache_misses_total", 1)

	// Admission happens before the job becomes visible: a refused job is
	// never indexed, coalesced onto or journaled, so a refusal costs no
	// disk write and no caller can be handed a job that is then dropped.
	if wm := m.opts.AdmissionWatermark; wm > 0 && m.queue.Len() >= wm {
		// Graceful degradation: past the watermark, refuse work that
		// would need a simulation rather than letting the backlog build
		// to the hard bound. The 429 + Retry-After this maps to tells
		// well-behaved clients (and forwarding fleet peers) to back off
		// or fail over.
		m.met.Inc("rrs_jobs_shed_total", 1)
		return nil, false, ErrOverloaded
	}
	if err := m.queue.reserve(); err != nil {
		if errors.Is(err, ErrQueueFull) {
			m.met.Inc("rrs_jobs_rejected_total", 1)
		}
		return nil, false, err
	}

	m.mu.Lock()
	if prior, ok := m.inflight[hash]; ok {
		// An identical submission was admitted since the check above.
		m.mu.Unlock()
		m.queue.release()
		m.met.Inc("rrs_jobs_coalesced_total", 1)
		return prior, true, nil
	}
	m.jobs[j.id] = j
	m.inflight[j.hash] = j
	m.mu.Unlock()
	// Journal the accept record before a worker can see the job: pushed
	// first, it could finish and journal its terminal record ahead of
	// the accept line, which replay would then read as a job still
	// pending.
	m.journal(acceptedRecord(j))
	if err := m.queue.commit(j); err != nil {
		// The queue closed after the reservation. The job was accepted,
		// so it ends like any job still queued at shutdown.
		m.finish(j, StateCancelled, err.Error())
		m.met.Inc("rrs_jobs_cancelled_total", 1)
	}
	return j, false, nil
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns all tracked jobs in deterministic submission order. Seq
// alone is not a total order — journal-restored jobs can tie (an old
// log with no Seq field replays them all as 0) — so ties break by id,
// never by map-iteration order, which must not leak into GET /v1/jobs
// or into sweep aggregation.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	sortBySeqThenID(jobs, func(j *Job) (uint64, string) { return j.seq, j.id })
	return jobs
}

// sortBySeqThenID orders items by sequence number with an id tie-break,
// the listing order shared by jobs and sweeps.
func sortBySeqThenID[T any](items []T, key func(T) (uint64, string)) {
	sort.Slice(items, func(a, b int) bool {
		sa, ia := key(items[a])
		sb, ib := key(items[b])
		if sa != sb {
			return sa < sb
		}
		return ia < ib
	})
}

// Cancel stops a queued or running job. Cancelling a terminal job is a
// no-op reported via ok=false.
func (m *Manager) Cancel(id string) (ok bool, err error) {
	j, found := m.Get(id)
	if !found {
		return false, ErrNotFound
	}
	j.mu.Lock()
	switch {
	case j.state == StateQueued && !j.finishing:
		// The worker that eventually pops it observes the state and
		// skips; mark it terminal now so waiters unblock immediately. A
		// client's cancellation is final even during a drain, so its
		// record is always journaled.
		j.finishing = true
		m.settle(j, StateCancelled, "", nil, true)
		m.met.Inc("rrs_jobs_cancelled_total", 1)
		return true, nil
	case j.state == StateRunning && j.cancel != nil:
		cancel := j.cancel
		j.mu.Unlock()
		cancel() // the worker finalizes state when sim.Run returns
		return true, nil
	default:
		j.mu.Unlock()
		return false, nil
	}
}

// Remove deletes a terminal job's record (and is how clients acknowledge
// failures). Active jobs must be cancelled first.
func (m *Manager) Remove(id string) error {
	j, found := m.Get(id)
	if !found {
		return ErrNotFound
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if !state.terminal() {
		return fmt.Errorf("service: job %s is %s; cancel it first", id, state)
	}
	m.mu.Lock()
	delete(m.jobs, id)
	repoint := m.doneByHash[j.hash] == j
	var sameHash []*Job
	if repoint {
		// Duplicate-hash done jobs exist (a cache-hit job shares the
		// computing job's hash); keep one of the survivors indexed so
		// ResultByHash still finds the result after this removal.
		delete(m.doneByHash, j.hash)
		for _, o := range m.jobs {
			if o.hash == j.hash {
				sameHash = append(sameHash, o)
			}
		}
	}
	m.mu.Unlock()
	for _, o := range sameHash {
		o.mu.Lock()
		done := o.state == StateDone && o.result != nil
		o.mu.Unlock()
		if done {
			m.mu.Lock()
			m.doneByHash[j.hash] = o
			m.mu.Unlock()
			break
		}
	}
	m.journal(journalRecord{Type: recRemoved, ID: id})
	return nil
}

// RunSync submits spec and waits for a result, ctx expiry or shutdown —
// the path CLI sweeps use to share the server's cache and worker pool.
func (m *Manager) RunSync(ctx context.Context, spec Spec) (sim.Result, error) {
	j, err := m.Submit(spec)
	if err != nil {
		return sim.Result{}, err
	}
	select {
	case <-j.Done():
	case <-ctx.Done():
		m.Cancel(j.ID())
		// The context may have expired in the same instant the job
		// finished; a completed result beats a context error.
		select {
		case <-j.Done():
			if v := j.Snapshot(); v.State == StateDone {
				res, _ := j.Result()
				return res, nil
			}
		default:
		}
		return sim.Result{}, ctx.Err()
	}
	v := j.Snapshot()
	if v.State != StateDone {
		return sim.Result{}, fmt.Errorf("service: job %s %s: %s", j.ID(), v.State, v.Error)
	}
	res, _ := j.Result()
	return res, nil
}

// worker pops jobs until the queue closes.
func (m *Manager) worker() {
	defer m.workers.Done()
	for {
		j, ok := m.queue.Pop()
		if !ok {
			return
		}
		m.runOne(j)
	}
}

// safeRun isolates one simulation attempt: a panic in the engine (or an
// injected chaos panic) becomes this job's error instead of the whole
// process's crash. Panics are permanent — a deterministic engine panics
// deterministically, so a retry would only panic again.
func (m *Manager) safeRun(ctx context.Context, fn RunFunc, spec Spec,
	progress func(done, total int64)) (res sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.met.Inc("rrs_worker_panics_total", 1)
			err = fmt.Errorf("service: worker panic: %v", r)
		}
	}()
	return fn(ctx, spec, progress)
}

// runOne executes one claimed job through its lifecycle.
func (m *Manager) runOne(j *Job) {
	timeout := m.opts.DefaultTimeout
	if j.spec.TimeoutSeconds > 0 {
		timeout = time.Duration(j.spec.TimeoutSeconds * float64(time.Second))
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	defer cancel()

	j.mu.Lock()
	if j.state != StateQueued || j.finishing { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.attempts++
	j.cancel = cancel
	j.mu.Unlock()

	m.mu.Lock()
	m.busy++
	m.mu.Unlock()
	m.met.Inc("rrs_runs_started_total", 1)

	progress := func(done, total int64) {
		if total <= 0 {
			return
		}
		p := float64(done) / float64(total)
		if p > 1 {
			// Defensive: sim.Run clamps done <= total, but a job must never
			// report more than 100% even if the engine contract regresses.
			p = 1
		}
		j.mu.Lock()
		if p > j.progress {
			j.progress = p
		}
		j.mu.Unlock()
	}

	fn := m.runJob
	if j.child && m.runChild != nil {
		fn = m.runChild
	}
	res, err := m.safeRun(ctx, fn, j.spec, progress)

	m.mu.Lock()
	m.busy--
	m.mu.Unlock()

	switch {
	case err == nil:
		// Drop the live hardware model before the result outlives the
		// run in the cache and job table, and fold the observability
		// aggregates into the metrics registry so the cached result is
		// identical to an unobserved run's.
		res.Mitigation = nil
		m.foldTimeline(res.Timeline)
		res.Timeline = nil
		start := j.started
		m.finish(j, StateDone, "", &res)
		m.met.Inc("rrs_jobs_done_total", 1)
		m.met.ObserveLatency(time.Since(start).Seconds())
	case errors.Is(err, context.Canceled):
		m.finish(j, StateCancelled, "cancelled by request")
		m.met.Inc("rrs_jobs_cancelled_total", 1)
	case errors.Is(err, context.DeadlineExceeded):
		m.finish(j, StateFailed, fmt.Sprintf("timed out after %s", timeout))
		m.met.Inc("rrs_jobs_failed_total", 1)
	case resilience.IsTransient(err) && m.requeue(j, err):
		// Re-enqueued for another attempt; not terminal yet.
	default:
		m.finish(j, StateFailed, err.Error())
		m.met.Inc("rrs_jobs_failed_total", 1)
	}
}

// requeue sends a transiently failed job back to the queue for another
// attempt, if the retry budget and the queue allow it. It reports false
// when the job must fail permanently instead.
func (m *Manager) requeue(j *Job, cause error) bool {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return false
	}
	j.mu.Lock()
	if j.state != StateRunning || j.finishing || j.attempts > m.opts.JobRetries {
		j.mu.Unlock()
		return false
	}
	j.state = StateQueued
	j.cancel = nil
	j.progress = 0
	j.mu.Unlock()
	if err := m.queue.Push(j); err != nil {
		// No queue slot for the retry: surface the original failure.
		m.finish(j, StateFailed, fmt.Sprintf("%v (retry abandoned: %v)", cause, err))
		m.met.Inc("rrs_jobs_failed_total", 1)
		return true // terminal state reached here; caller must not double-finish
	}
	m.met.Inc("rrs_job_retries_total", 1)
	return true
}

// retire drops j from the submit-coalescing index once it can no longer
// absorb duplicate submissions.
func (m *Manager) retire(j *Job) {
	m.mu.Lock()
	if m.inflight[j.hash] == j {
		delete(m.inflight, j.hash)
	}
	m.mu.Unlock()
}

// finish moves j to a terminal state exactly once. A done job's result
// enters the result cache (and reaches Options.OnResult) here.
func (m *Manager) finish(j *Job, state State, errMsg string, result ...*sim.Result) {
	m.mu.Lock()
	draining := m.draining
	m.mu.Unlock()
	var res *sim.Result
	if state == StateDone && len(result) > 0 {
		res = result[0]
	}
	j.mu.Lock()
	if j.state.terminal() || j.finishing {
		j.mu.Unlock()
		return
	}
	j.finishing = true
	// Drain semantics: a cancellation during drain is "ran out of time",
	// not "the client gave up". Withholding the terminal record leaves
	// the accepted record unmatched, so the next startup's journal
	// replay re-enqueues the job instead of losing it.
	withhold := draining && state == StateCancelled
	if withhold {
		m.met.Inc("rrs_jobs_requeued_total", 1)
	}
	m.settle(j, state, errMsg, res, !withhold)
}

// settle completes the terminal transition the caller claimed by
// setting j.finishing under j.mu, which settle releases. The record is
// built under j.mu and journaled (when journal is set) without it, so
// polls of the job do not wait on the disk; the new state, the cached
// result and the closed done channel are published only after the
// append returns, so nothing reports a job done before its terminal
// record is durable.
func (m *Manager) settle(j *Job, state State, errMsg string, res *sim.Result, journal bool) {
	j.cancel = nil
	finished := time.Now()
	rec := terminalRecord(j, state, errMsg, finished, res)
	j.mu.Unlock()
	if journal {
		m.journal(rec)
	}
	j.mu.Lock()
	j.state = state
	j.err = errMsg
	j.finished = finished
	if state == StateDone {
		j.progress = 1
		j.result = res
	}
	j.mu.Unlock()
	if res != nil {
		m.cache.Put(j.hash, *res)
		if m.opts.OnResult != nil {
			m.opts.OnResult(j.hash, *res)
		}
	}
	m.retire(j)
	if res != nil {
		m.mu.Lock()
		m.doneByHash[j.hash] = j
		m.mu.Unlock()
	}
	close(j.done)
}

// StartDrain flips the manager into drain mode: Submit refuses new work
// with ErrDraining (HTTP 503) and /readyz reports not-ready, while
// already-accepted jobs keep running. Call Drain to bound the wind-down.
func (m *Manager) StartDrain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
}

// Draining reports whether the manager is in drain mode or closed —
// either way it is not accepting work, which is what /readyz serves.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining || m.closed
}

// Backlog reports how many accepted jobs are waiting for a worker.
func (m *Manager) Backlog() int { return m.queue.Len() }

// Load reports the serving pressure: queued backlog, workers mid-run,
// and the pool size. The fleet's steal loop uses it to decide when this
// node is idle enough to take a peer's work.
func (m *Manager) Load() (backlog, busy, workers int) {
	m.mu.Lock()
	busy = int(m.busy)
	m.mu.Unlock()
	return m.queue.Len(), busy, m.opts.Workers
}

// CachedResult answers a content-hash lookup from the local result
// cache — the building block of fleet-wide cache hits: before running a
// job, a peer asks the rest of the fleet for the hash first.
func (m *Manager) CachedResult(hash string) (sim.Result, bool) {
	return m.cache.Get(hash)
}

// active counts jobs not yet in a terminal state.
func (m *Manager) active() int {
	n := 0
	for _, j := range m.List() {
		j.mu.Lock()
		if !j.state.terminal() {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Drain is the graceful half of shutdown: stop intake, then give the
// backlog and running jobs until ctx expires to finish. Jobs that do
// not make it are cancelled with their terminal journal record
// withheld, so the accepted records replay as pending on the next
// startup — a drain never loses accepted work, it completes it or hands
// it to the future (or, in a fleet, to the node's replacement). Returns
// ctx.Err() when the deadline cut jobs short, nil when everything
// finished.
func (m *Manager) Drain(ctx context.Context) error {
	m.StartDrain()

	// Let the workers chew through what is already accepted.
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	timedOut := false
wait:
	for m.active() > 0 {
		select {
		case <-ctx.Done():
			timedOut = true
			break wait
		case <-tick.C:
		}
	}

	// Stop the pool. Anything still queued (including jobs lent to a
	// fleet peer, which live outside the fifo) or running is cancelled
	// now — under drain mode finish() withholds their terminal records.
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	for _, j := range m.queue.Close() {
		m.finish(j, StateCancelled, "drained: will replay on restart")
		m.met.Inc("rrs_jobs_cancelled_total", 1)
	}
	for _, j := range m.List() {
		j.mu.Lock()
		terminal := j.state.terminal() || j.finishing
		running := j.state == StateRunning
		j.mu.Unlock()
		switch {
		case terminal:
		case running:
			m.Cancel(j.ID())
		default:
			// Queued but not in the fifo: lent to a thief that never
			// donated, or raced the queue close.
			m.finish(j, StateCancelled, "drained: will replay on restart")
			m.met.Inc("rrs_jobs_cancelled_total", 1)
		}
	}
	m.workers.Wait()
	// Sweep feeders observe ErrDraining/ErrClosed and stop; watchers
	// unblock once their children are cancelled above. Terminal sweep
	// records are withheld under drain (like job records), so the next
	// startup's replay resumes the sweeps too.
	m.sweepWG.Wait()
	if timedOut {
		return ctx.Err()
	}
	return nil
}

// StealQueued pops the oldest queued job off the run queue for remote
// execution, leaving its record — and its client-visible id — in place.
// The caller must either deliver a result via CompleteExternal or give
// the job back via RequeueStolen; a fleet node guards that obligation
// with a lease and reclaims expired ones.
func (m *Manager) StealQueued() (*Job, bool) {
	if m.Draining() {
		return nil, false
	}
	for {
		j, ok := m.queue.TryPop()
		if !ok {
			return nil, false
		}
		j.mu.Lock()
		queued := j.state == StateQueued && !j.finishing
		j.mu.Unlock()
		if queued {
			return j, true
		}
		// Cancelled while waiting; skip it like a worker would.
	}
}

// RequeueStolen returns a stolen job to the local queue (thief gone,
// lease expired). If the queue is no longer accepting, the job is
// cancelled — under drain that withholds the terminal record, so it
// still replays on restart.
func (m *Manager) RequeueStolen(j *Job) {
	j.mu.Lock()
	queued := j.state == StateQueued && !j.finishing
	j.mu.Unlock()
	if !queued {
		return
	}
	if err := m.queue.Push(j); err != nil {
		m.finish(j, StateCancelled, fmt.Sprintf("stolen job could not requeue: %v", err))
		m.met.Inc("rrs_jobs_cancelled_total", 1)
	}
}

// CompleteExternal finishes a stolen job with a result computed
// elsewhere (a fleet thief's donation). Reports false when the job
// already reached a terminal state — a duplicate donation, or a local
// re-run that won the race — in which case the result is dropped and
// exactly-once delivery is preserved by the job's single terminal
// state.
func (m *Manager) CompleteExternal(j *Job, res sim.Result) bool {
	j.mu.Lock()
	if j.state.terminal() || j.finishing || j.state == StateRunning {
		j.mu.Unlock()
		return false
	}
	j.mu.Unlock()
	res.Mitigation = nil
	res.Timeline = nil
	m.finish(j, StateDone, "", &res)
	m.met.Inc("rrs_jobs_done_total", 1)
	return true
}

// InsertCached stores an externally computed result in the result cache
// with no job record — the receive path of fleet result replication. The
// same stripping as local completion keeps every cached payload
// byte-identical regardless of which node computed it. OnResult is
// deliberately not invoked: a received replica must not fan back out.
func (m *Manager) InsertCached(hash string, res sim.Result) {
	res.Mitigation = nil
	res.Timeline = nil
	m.cache.Put(hash, res)
}

// DoneHashes returns every content hash this node durably holds a result
// for: done jobs (journal-backed, in submission order) followed by
// cache-only entries (received replicas, fan-out adoptions), deduplicated.
// The fleet's anti-entropy repair loop walks this set to verify each
// result still has its ring replica.
func (m *Manager) DoneHashes() []string {
	seen := make(map[string]bool)
	var out []string
	for _, j := range m.List() {
		j.mu.Lock()
		done := j.state == StateDone && j.result != nil
		h := j.hash
		j.mu.Unlock()
		if done && !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	for _, h := range m.cache.Keys() {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

// ResultByHash returns a held result by content hash, consulting the
// cache first and falling back to the done-job index — a done job's
// result can outlive its cache entry under LRU pressure, and the repair
// loop (and sweep aggregation, once per unlinked child per poll) must
// still find it without scanning the whole job table.
func (m *Manager) ResultByHash(hash string) (sim.Result, bool) {
	if res, ok := m.cache.Get(hash); ok {
		return res, true
	}
	m.mu.Lock()
	j := m.doneByHash[hash]
	m.mu.Unlock()
	if j == nil {
		return sim.Result{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone && j.result != nil {
		return *j.result, true
	}
	return sim.Result{}, false
}

// Shutdown stops intake, cancels the backlog, and waits for running
// jobs to drain (or ctx to expire, in which case they are cancelled).
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()

	for _, j := range m.queue.Close() {
		m.finish(j, StateCancelled, "server shutting down")
		m.met.Inc("rrs_jobs_cancelled_total", 1)
	}

	drained := make(chan struct{})
	go func() {
		m.workers.Wait()
		m.sweepWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		// Force-cancel what is still running, then wait for the pool.
		for _, j := range m.List() {
			m.Cancel(j.ID())
		}
		<-drained
		return ctx.Err()
	}
}
