package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
)

// The job journal is an append-only JSONL write-ahead log that makes
// accepted work durable: one record per line, appended (and synced) when
// a job is accepted, when it reaches a terminal state, and when its
// record is removed. A spec is durable once POST /v1/jobs has returned
// 201 — a crash after that point (kill -9 included) loses neither the
// job nor any result the process had already computed.
//
// On startup, OpenJournal replays the log into a Replayed summary and
// compacts the file: terminal jobs keep their accepted+terminal pair
// (their results double as the durable result-cache snapshot), removed
// jobs are dropped, and jobs with no terminal record come back as
// pending. Manager.Restore then re-populates the job table and cache and
// re-enqueues the pending jobs under their original ids, so clients
// polling across a restart resume against the same job URLs.
//
// Torn final lines (a crash mid-append) are tolerated and dropped during
// replay; every earlier record is intact because appends are
// line-buffered in one write and fsynced.

// journalRecord is one JSONL line. Type decides which fields matter.
type journalRecord struct {
	Type journalRecordType `json:"type"`
	ID   string            `json:"id,omitempty"`
	Seq  uint64            `json:"seq,omitempty"`
	Hash string            `json:"hash,omitempty"`
	Spec *Spec             `json:"spec,omitempty"`
	// SweepSpec rides on sweep-accepted records; sweeps journal only the
	// compact spec — the expansion is deterministic, so replay re-derives
	// the children instead of logging thousands of hashes.
	SweepSpec *SweepSpec `json:"sweep_spec,omitempty"`
	// Terminal-state fields.
	State  State       `json:"state,omitempty"`
	Error  string      `json:"error,omitempty"`
	Result *sim.Result `json:"result,omitempty"`
	// Timestamps, RFC3339Nano.
	Submitted string `json:"submitted_at,omitempty"`
	Finished  string `json:"finished_at,omitempty"`
}

type journalRecordType string

const (
	recAccepted journalRecordType = "accepted"
	recTerminal journalRecordType = "terminal"
	recRemoved  journalRecordType = "removed"
	// Sweep records mirror the job lifecycle for the parent of a
	// server-side sweep. Child jobs journal as ordinary jobs.
	recSweepAccepted journalRecordType = "sweep_accepted"
	recSweepTerminal journalRecordType = "sweep_terminal"
	recSweepRemoved  journalRecordType = "sweep_removed"
)

// acceptedRecord snapshots j for the accept line.
func acceptedRecord(j *Job) journalRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	spec := j.spec
	return journalRecord{
		Type:      recAccepted,
		ID:        j.id,
		Seq:       j.seq,
		Hash:      j.hash,
		Spec:      &spec,
		Submitted: j.submitted.UTC().Format(time.RFC3339Nano),
	}
}

// terminalRecord builds the terminal line for j, whose mu the caller
// holds, entering state. Results ride along for done jobs — replaying
// them is what reconstitutes the result store.
func terminalRecord(j *Job, state State, errMsg string, finished time.Time, res *sim.Result) journalRecord {
	rec := journalRecord{
		Type:     recTerminal,
		ID:       j.id,
		Hash:     j.hash,
		State:    state,
		Error:    errMsg,
		Finished: finished.UTC().Format(time.RFC3339Nano),
	}
	if state == StateDone && res != nil {
		r := *res
		rec.Result = &r
	}
	return rec
}

// sweepAcceptedRecord snapshots sw for the sweep-accept line.
func sweepAcceptedRecord(sw *Sweep) journalRecord {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	spec := sw.spec
	return journalRecord{
		Type:      recSweepAccepted,
		ID:        sw.id,
		Seq:       sw.seq,
		Hash:      sw.hash,
		SweepSpec: &spec,
		Submitted: sw.submitted.UTC().Format(time.RFC3339Nano),
	}
}

// sweepTerminalRecord snapshots sw for the sweep-terminal line. No
// results ride along: the children's own terminal records are the
// durable result store, and SweepResults re-joins them by hash.
func sweepTerminalRecord(sw *Sweep) journalRecord {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return journalRecord{
		Type:     recSweepTerminal,
		ID:       sw.id,
		Hash:     sw.hash,
		State:    sw.state,
		Error:    sw.err,
		Finished: sw.finished.UTC().Format(time.RFC3339Nano),
	}
}

// Journal is the append handle. Appends are serialized and synced; after
// Close they become silent no-ops (which is how tests simulate the
// process dying while the manager's workers are still winding down).
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	closed bool
}

// ReplayedJob is one job reconstructed from the log, in submission
// order. State is StateQueued for jobs that never reached a terminal
// record — the ones Restore re-enqueues.
type ReplayedJob struct {
	ID        string
	Seq       uint64
	Hash      string
	Spec      Spec
	State     State
	Error     string
	Result    *sim.Result
	Submitted time.Time
	Finished  time.Time
}

// ReplayedSweep is one sweep parent reconstructed from the log. State
// is StateQueued for sweeps with no terminal record — Restore re-expands
// and resumes those, answering already-finished children from the
// replayed result store.
type ReplayedSweep struct {
	ID        string
	Seq       uint64
	Hash      string
	Spec      SweepSpec
	State     State
	Error     string
	Submitted time.Time
	Finished  time.Time
}

// Replayed summarizes a journal's reconstruction.
type Replayed struct {
	// Jobs holds every non-removed job in submission order.
	Jobs []ReplayedJob
	// Sweeps holds every non-removed sweep parent in submission order.
	Sweeps []ReplayedSweep
	// Pending counts jobs that will be re-enqueued (no terminal state).
	Pending int
	// PendingSweeps counts sweeps that will be resumed.
	PendingSweeps int
	// Results counts durable done-results (the result-store snapshot).
	Results int
	// Dropped counts unparseable lines (at most the torn final line of a
	// crashed process, but any corruption is skipped, not fatal).
	Dropped int
}

// OpenJournal opens (creating if needed) the journal at path, replays
// its records, compacts the file, and returns the append handle plus the
// replay summary for Manager.Restore.
func OpenJournal(path string) (*Journal, *Replayed, error) {
	rep, err := replayJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if err := compactJournal(path, rep); err != nil {
		return nil, nil, fmt.Errorf("service: compacting journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: opening journal: %w", err)
	}
	return &Journal{f: f, path: path}, rep, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close stops all future appends and releases the file. Safe to call
// more than once.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

// append writes recs as JSONL lines in one write and syncs them to
// disk.
func (j *Journal) append(recs ...journalRecord) error {
	var lines []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		lines = append(append(lines, line...), '\n')
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	if _, err := j.f.Write(lines); err != nil {
		return err
	}
	return j.f.Sync()
}

// replayJournal folds the log into per-job and per-sweep end states.
func replayJournal(path string) (*Replayed, error) {
	rep := &Replayed{}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return rep, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: opening journal: %w", err)
	}
	defer f.Close()

	byID := make(map[string]*ReplayedJob)
	order := []string{}
	sweepByID := make(map[string]*ReplayedSweep)
	sweepOrder := []string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024) // results are large-ish lines
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			rep.Dropped++ // torn or corrupt line; later records still apply
			continue
		}
		switch rec.Type {
		case recAccepted:
			if rec.ID == "" || rec.Spec == nil {
				rep.Dropped++
				continue
			}
			rj := &ReplayedJob{
				ID:    rec.ID,
				Seq:   rec.Seq,
				Hash:  rec.Hash,
				Spec:  *rec.Spec,
				State: StateQueued,
			}
			rj.Submitted = parseStamp(rec.Submitted)
			if _, dup := byID[rec.ID]; !dup {
				order = append(order, rec.ID)
			}
			byID[rec.ID] = rj
		case recTerminal:
			if !rec.State.terminal() {
				rep.Dropped++
				continue
			}
			rj, ok := byID[rec.ID]
			if !ok {
				continue // e.g. a queue-full rejection; nothing was accepted
			}
			rj.State = rec.State
			rj.Error = rec.Error
			rj.Result = rec.Result
			rj.Finished = parseStamp(rec.Finished)
		case recRemoved:
			if _, ok := byID[rec.ID]; ok {
				delete(byID, rec.ID)
			}
		case recSweepAccepted:
			if rec.ID == "" || rec.SweepSpec == nil {
				rep.Dropped++
				continue
			}
			rs := &ReplayedSweep{
				ID:    rec.ID,
				Seq:   rec.Seq,
				Hash:  rec.Hash,
				Spec:  *rec.SweepSpec,
				State: StateQueued,
			}
			rs.Submitted = parseStamp(rec.Submitted)
			if _, dup := sweepByID[rec.ID]; !dup {
				sweepOrder = append(sweepOrder, rec.ID)
			}
			sweepByID[rec.ID] = rs
		case recSweepTerminal:
			if !rec.State.terminal() {
				rep.Dropped++
				continue
			}
			rs, ok := sweepByID[rec.ID]
			if !ok {
				continue
			}
			rs.State = rec.State
			rs.Error = rec.Error
			rs.Finished = parseStamp(rec.Finished)
		case recSweepRemoved:
			delete(sweepByID, rec.ID)
		default:
			rep.Dropped++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("service: reading journal: %w", err)
	}

	jobs := make([]ReplayedJob, 0, len(byID))
	for _, id := range order {
		if rj, ok := byID[id]; ok {
			jobs = append(jobs, *rj)
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Seq < jobs[b].Seq })
	for i := range jobs {
		switch jobs[i].State {
		case StateDone:
			if jobs[i].Result != nil {
				rep.Results++
			}
		case StateQueued:
			rep.Pending++
		}
	}
	rep.Jobs = jobs

	sweeps := make([]ReplayedSweep, 0, len(sweepByID))
	for _, id := range sweepOrder {
		if rs, ok := sweepByID[id]; ok {
			sweeps = append(sweeps, *rs)
		}
	}
	sort.SliceStable(sweeps, func(a, b int) bool { return sweeps[a].Seq < sweeps[b].Seq })
	for i := range sweeps {
		if sweeps[i].State == StateQueued {
			rep.PendingSweeps++
		}
	}
	rep.Sweeps = sweeps
	return rep, nil
}

// parseStamp reads a record timestamp in UTC, the zone compaction
// writes. An unparseable stamp, or one whose UTC form falls outside the
// four-digit years RFC 3339 can write back, reads as the zero time.
func parseStamp(s string) time.Time {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil || t.UTC().Year() < 0 || t.UTC().Year() > 9999 {
		return time.Time{}
	}
	return t.UTC()
}

// compactJournal rewrites the log to exactly the live records, via a
// temp file and an atomic rename so a crash mid-compaction leaves either
// the old or the new journal, never a torn one.
func compactJournal(path string, rep *Replayed) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".compact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	for i := range rep.Jobs {
		rj := &rep.Jobs[i]
		spec := rj.Spec
		if err := enc.Encode(journalRecord{
			Type: recAccepted, ID: rj.ID, Seq: rj.Seq, Hash: rj.Hash, Spec: &spec,
			Submitted: rj.Submitted.UTC().Format(time.RFC3339Nano),
		}); err != nil {
			return err
		}
		if rj.State.terminal() {
			if err := enc.Encode(journalRecord{
				Type: recTerminal, ID: rj.ID, Hash: rj.Hash, State: rj.State,
				Error: rj.Error, Result: rj.Result,
				Finished: rj.Finished.UTC().Format(time.RFC3339Nano),
			}); err != nil {
				return err
			}
		}
	}
	for i := range rep.Sweeps {
		rs := &rep.Sweeps[i]
		spec := rs.Spec
		if err := enc.Encode(journalRecord{
			Type: recSweepAccepted, ID: rs.ID, Seq: rs.Seq, Hash: rs.Hash,
			SweepSpec: &spec,
			Submitted: rs.Submitted.UTC().Format(time.RFC3339Nano),
		}); err != nil {
			return err
		}
		if rs.State.terminal() {
			if err := enc.Encode(journalRecord{
				Type: recSweepTerminal, ID: rs.ID, Hash: rs.Hash, State: rs.State,
				Error:    rs.Error,
				Finished: rs.Finished.UTC().Format(time.RFC3339Nano),
			}); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Restore loads a journal replay into the manager: terminal jobs come
// back as inspectable records, done results fill the result store, and
// pending jobs are re-enqueued under their original ids. Call it once,
// before exposing the manager over HTTP, on a manager built with the
// matching Options.Journal. Pending jobs whose spec no longer validates
// or no longer hashes to the recorded hash (a journal from an older
// build, hand edits) are marked failed rather than replayed forever or
// under the wrong address, and so is a done job whose record carries no
// result.
func (m *Manager) Restore(rep *Replayed) error {
	if rep == nil {
		return nil
	}
	// Surface the replay in the metrics even when nothing (or only
	// garbage) was in the log: torn-line and compaction counts are how
	// an operator audits what a crash cost.
	m.met.Inc("rrs_journal_compactions_total", 1)
	m.met.Inc("rrs_journal_torn_lines_total", int64(rep.Dropped))
	m.met.Inc("rrs_journal_replayed_jobs_total", int64(len(rep.Jobs)))
	if len(rep.Jobs) == 0 && len(rep.Sweeps) == 0 {
		return nil
	}
	var errs []error
	// requeued maps each re-enqueued job's hash to the job, so a resumed
	// sweep links its unfinished children to them directly.
	requeued := make(map[string]*Job)
	for i := range rep.Jobs {
		rj := &rep.Jobs[i]
		j := &Job{
			id:        rj.ID,
			seq:       rj.Seq,
			spec:      rj.Spec.Normalize(),
			hash:      rj.Hash,
			state:     rj.State,
			err:       rj.Error,
			submitted: rj.Submitted,
			finished:  rj.Finished,
			done:      make(chan struct{}),
		}
		if j.hash == "" {
			j.hash = j.spec.Hash()
		}

		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return ErrClosed
		}
		if _, exists := m.jobs[j.id]; exists {
			m.mu.Unlock()
			errs = append(errs, fmt.Errorf("service: journal job %s collides with a live job", j.id))
			continue
		}
		m.jobs[j.id] = j
		if j.seq > m.seq {
			m.seq = j.seq
		}
		m.mu.Unlock()
		m.met.Inc("rrs_jobs_restored_total", 1)

		if rj.State.terminal() {
			switch {
			case rj.State != StateDone:
			case rj.Result != nil:
				m.store(j.hash, *rj.Result)
				j.progress = 1
			default:
				// Only a damaged log holds a done record with no result; a
				// done job must resolve through the store, so it comes back
				// failed instead.
				j.state = StateFailed
				j.err = "journal replay: done record carries no result"
			}
			close(j.done)
			continue
		}

		// Pending: validate against the current build, then re-enqueue.
		// A spec that decodes to a different hash than the one recorded
		// carried a field this build no longer has (decoding drops it);
		// running it would store another job's result under that hash.
		err := j.spec.Validate()
		if err == nil && j.spec.Hash() != j.hash {
			err = fmt.Errorf("spec no longer hashes to its recorded hash %s", j.hash)
		}
		if err != nil {
			m.finish(j, StateFailed, fmt.Sprintf("journal replay: %v", err))
			m.met.Inc("rrs_jobs_failed_total", 1)
			continue
		}
		m.mu.Lock()
		if _, dup := m.inflight[j.hash]; !dup {
			m.inflight[j.hash] = j
		}
		m.mu.Unlock()
		if err := m.queue.forcePush(j); err != nil {
			m.finish(j, StateFailed, fmt.Sprintf("journal replay: %v", err))
			m.met.Inc("rrs_jobs_failed_total", 1)
			errs = append(errs, fmt.Errorf("service: re-enqueueing %s: %w", j.id, err))
			continue
		}
		requeued[j.hash] = j
	}
	// Sweeps restore after jobs so the replayed result store and the
	// re-enqueued pending children are in place: a resumed sweep's feeder
	// links the replayed jobs instead of duplicating them, and completed
	// children come back as cache hits.
	for i := range rep.Sweeps {
		if err := m.restoreSweep(&rep.Sweeps[i], requeued); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
