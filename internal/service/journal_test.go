package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// journalManager builds a stub manager journaling to path.
func journalManager(t *testing.T, path string, opts Options,
	fn func(ctx context.Context, spec Spec, progress func(done, total int64)) (sim.Result, error)) (*Manager, *Journal, *Replayed) {
	t.Helper()
	j, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	opts.Journal = j
	m := stubManager(t, opts, fn)
	t.Cleanup(func() { j.Close() })
	return m, j, rep
}

func TestJournalMissingFileReplaysEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(rep.Jobs) != 0 || rep.Pending != 0 || rep.Results != 0 || rep.Dropped != 0 {
		t.Fatalf("empty journal replayed %+v", rep)
	}
}

func TestJournalDoneJobsSurviveRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	m1, j1, _ := journalManager(t, path, Options{Workers: 2}, instantRun)

	specs := []Spec{uniqueSpec(1), uniqueSpec(2), uniqueSpec(3)}
	ids := make([]string, len(specs))
	for i, s := range specs {
		j, err := m1.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID()
		if v := waitDone(t, j); v.State != StateDone {
			t.Fatalf("job %s: %s (%s)", v.ID, v.State, v.Error)
		}
	}
	shutdown(t, m1)
	j1.Close()

	// Restart: the replay carries terminal jobs with results.
	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rep.Jobs) != 3 || rep.Results != 3 || rep.Pending != 0 {
		t.Fatalf("replay = %d jobs, %d results, %d pending; want 3/3/0",
			len(rep.Jobs), rep.Results, rep.Pending)
	}

	m2 := stubManager(t, Options{Workers: 1, Journal: j2},
		func(context.Context, Spec, func(int64, int64)) (sim.Result, error) {
			t.Error("restored manager ran a simulation; results should come from the journal")
			return sim.Result{}, nil
		})
	if err := m2.Restore(rep); err != nil {
		t.Fatal(err)
	}

	// Original job ids answer with their original results…
	for i, id := range ids {
		job, ok := m2.Get(id)
		if !ok {
			t.Fatalf("restored manager lost job %s", id)
		}
		v := job.Snapshot()
		if v.State != StateDone {
			t.Fatalf("restored job %s state = %s", id, v.State)
		}
		res, ok := job.Result()
		if !ok || res.IPC != float64(specs[i].Seed) {
			t.Fatalf("restored job %s result = (%+v, %v)", id, res, ok)
		}
	}
	// …and resubmissions are cache hits, not recomputations.
	j, err := m2.Submit(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, j); !v.CacheHit {
		t.Error("resubmission after restart missed the replayed cache")
	}
}

func TestJournalPendingJobsReenqueuedAfterCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	release := make(chan struct{})
	m1, j1, _ := journalManager(t, path, Options{Workers: 1},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			<-release
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		j, err := m1.Submit(uniqueSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	// Simulate kill -9: stop journaling first, so the in-memory shutdown
	// below cannot write terminal states the dead process never reached.
	j1.Close()
	close(release)
	shutdown(t, m1)

	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep.Pending != 3 || len(rep.Jobs) != 3 {
		t.Fatalf("replay = %d jobs, %d pending; want 3/3", len(rep.Jobs), rep.Pending)
	}

	m2 := stubManager(t, Options{Workers: 2, Journal: j2},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	if err := m2.Restore(rep); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		job, ok := m2.Get(id)
		if !ok {
			t.Fatalf("pending job %s not restored", id)
		}
		v := waitDone(t, job)
		if v.State != StateDone || v.ID != id {
			t.Fatalf("replayed job = %+v, want done under original id %s", v, id)
		}
		res, _ := job.Result()
		if res.IPC != float64(i+1) {
			t.Fatalf("replayed job %s IPC = %v, want %d", id, res.IPC, i+1)
		}
	}
	// New submissions continue the id sequence past the replayed ones.
	j4, err := m2.Submit(uniqueSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	if j4.ID() <= ids[len(ids)-1] {
		t.Errorf("post-restore id %s does not extend replayed sequence ending %s",
			j4.ID(), ids[len(ids)-1])
	}
	waitDone(t, j4)
}

func TestJournalTornFinalLineDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	m1, j1, _ := journalManager(t, path, Options{Workers: 1}, instantRun)
	j, err := m1.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	shutdown(t, m1)
	j1.Close()

	// Simulate a crash mid-append: a torn, unparseable final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"accepted","id":"job-9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1 torn line", rep.Dropped)
	}
	if len(rep.Jobs) != 1 || rep.Results != 1 {
		t.Errorf("replay = %d jobs, %d results; the intact record must survive",
			len(rep.Jobs), rep.Results)
	}
}

// TestJournalQueueFullRejectionNotReplayed: a job is journaled as
// accepted before it is queued, so a submission the full queue rejects
// must be refused before that accept line, not replayed after a
// restart.
func TestJournalQueueFullRejectionNotReplayed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	gate := make(chan struct{})
	m1, j1, _ := journalManager(t, path, Options{Workers: 1, QueueDepth: 1},
		func(ctx context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			}
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	running, err := m1.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for running.Snapshot().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := m1.Submit(uniqueSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Submit(uniqueSpec(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	close(gate)
	waitDone(t, queued)
	shutdown(t, m1)
	j1.Close()

	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rep.Jobs) != 2 || rep.Results != 2 {
		t.Fatalf("replay = %d jobs, %d results; want the 2 accepted jobs, both done", len(rep.Jobs), rep.Results)
	}
	for _, rj := range rep.Jobs {
		if rj.Spec.Seed == 3 {
			t.Errorf("rejected job %s replayed as %s", rj.ID, rj.State)
		}
	}
}

// TestCoalescedSubmitsSurviveQueueFull: identical submissions race a
// full queue, retrying like sweep feeders do. A submission the queue
// refuses must never be visible to the others, so every job handed out
// stays gettable and runs to done.
func TestCoalescedSubmitsSurviveQueueFull(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	m, _, _ := journalManager(t, path, Options{Workers: 1, QueueDepth: 1},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			time.Sleep(time.Millisecond)
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	const submitters, seeds = 8, 6
	var (
		mu   sync.Mutex
		jobs []*Job
		wg   sync.WaitGroup
	)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < seeds; i++ {
				spec := uniqueSpec(uint64(1 + (g+i)%seeds))
				for {
					j, err := m.Submit(spec)
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(100 * time.Microsecond)
						continue
					}
					if err != nil {
						t.Errorf("submit seed %d: %v", spec.Seed, err)
						return
					}
					mu.Lock()
					jobs = append(jobs, j)
					mu.Unlock()
					break
				}
			}
		}(g)
	}
	wg.Wait()
	if len(jobs) != submitters*seeds {
		t.Fatalf("%d submissions accepted, want %d", len(jobs), submitters*seeds)
	}
	for _, j := range jobs {
		if _, ok := m.Get(j.ID()); !ok {
			t.Errorf("job %s handed to a submitter is not gettable", j.ID())
		}
		if v := waitDone(t, j); v.State != StateDone {
			t.Errorf("job %s ended %s (%s), want done", j.ID(), v.State, v.Error)
		}
	}
}

func TestJournalCompactionDropsRemovedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	m1, j1, _ := journalManager(t, path, Options{Workers: 1}, instantRun)
	keep, err := m1.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, keep)
	gone, err := m1.Submit(uniqueSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, gone)
	if err := m1.Remove(gone.ID()); err != nil {
		t.Fatal(err)
	}
	shutdown(t, m1)
	j1.Close()

	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if len(rep.Jobs) != 1 || rep.Jobs[0].ID != keep.ID() {
		t.Fatalf("replay kept %d jobs; want only %s", len(rep.Jobs), keep.ID())
	}
	// The compacted file itself no longer mentions the removed job.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), gone.ID()) {
		t.Errorf("compacted journal still mentions removed job %s:\n%s", gone.ID(), raw)
	}
	// Idempotence: a second replay of the compacted file is identical.
	j3, rep2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if len(rep2.Jobs) != 1 || rep2.Results != rep.Results || rep2.Pending != rep.Pending {
		t.Errorf("second replay %+v differs from first %+v", rep2, rep)
	}
}

func TestJournalCancelledJobsNotReenqueued(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	release := make(chan struct{})
	m1, j1, _ := journalManager(t, path, Options{Workers: 1},
		func(_ context.Context, _ Spec, _ func(int64, int64)) (sim.Result, error) {
			<-release
			return sim.Result{}, nil
		})
	blocker, err := m1.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m1.Submit(uniqueSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := m1.Cancel(queued.ID()); !ok || err != nil {
		t.Fatalf("Cancel = (%v, %v)", ok, err)
	}
	waitDone(t, queued)
	close(release)
	waitDone(t, blocker)
	shutdown(t, m1)
	j1.Close()

	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep.Pending != 0 {
		t.Fatalf("Pending = %d; a cancelled job must not be re-enqueued", rep.Pending)
	}
	m2 := stubManager(t, Options{Workers: 1, Journal: j2}, instantRun)
	if err := m2.Restore(rep); err != nil {
		t.Fatal(err)
	}
	job, ok := m2.Get(queued.ID())
	if !ok {
		t.Fatalf("cancelled job %s not restored", queued.ID())
	}
	if v := job.Snapshot(); v.State != StateCancelled {
		t.Errorf("restored state = %s, want cancelled", v.State)
	}
}

func TestJournalInvalidReplayedSpecFailsJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	// Hand-write a pending job whose workload no longer exists.
	line := `{"type":"accepted","id":"job-000001","seq":1,"hash":"deadbeef",` +
		`"spec":{"workloads":["no-such-workload"]},"submitted_at":"2026-01-02T03:04:05Z"}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	j, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rep.Pending != 1 {
		t.Fatalf("Pending = %d, want 1", rep.Pending)
	}
	m := stubManager(t, Options{Workers: 1, Journal: j}, instantRun)
	if err := m.Restore(rep); err != nil {
		t.Fatal(err)
	}
	job, ok := m.Get("job-000001")
	if !ok {
		t.Fatal("stale job not restored at all")
	}
	v := waitDone(t, job)
	if v.State != StateFailed || !strings.Contains(v.Error, "unknown workload") {
		t.Fatalf("stale spec replayed to %s (%s); want failed with a validation error",
			v.State, v.Error)
	}
}

func TestJournalClosedAppendsAreNoOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err) // double close is safe
	}
	if err := j.append(journalRecord{Type: recRemoved, ID: "job-000009"}); err != nil {
		t.Fatalf("append after close = %v, want silent no-op", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 0 {
		t.Errorf("closed journal still wrote: %q", raw)
	}
}

// shutdown drains m with a generous deadline.
func shutdown(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestJournalTornLineWithStaleCompactionTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	gate := make(chan struct{})
	m1, j1, _ := journalManager(t, path, Options{Workers: 1},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			if spec.Seed >= 3 {
				<-gate
			}
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	for seed := uint64(1); seed <= 2; seed++ {
		j, err := m1.Submit(uniqueSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	pending, err := m1.Submit(uniqueSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	// kill -9 while seed 3 runs: the journal closes first, so its
	// terminal record (written during manager teardown) is lost and the
	// job must replay as pending.
	j1.Close()
	close(gate)
	shutdown(t, m1)

	// The crash also tore the final append AND interrupted a previous
	// compaction, leaving a half-written .compact-* temp alongside the
	// journal. Replay must survive both: drop the torn line, ignore the
	// stale temp (compaction writes to a fresh temp and renames
	// atomically, so leftovers are inert).
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"accepted","id":"job-9`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	stale := filepath.Join(dir, "jobs.journal.compact-stale1")
	if err := os.WriteFile(stale, []byte(`{"type":"accepted","id":"ghost-1",`), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 1 || len(rep.Jobs) != 3 || rep.Pending != 1 || rep.Results != 2 {
		t.Fatalf("replay = %d jobs, %d pending, %d results, %d dropped; want 3/1/2/1",
			len(rep.Jobs), rep.Pending, rep.Results, rep.Dropped)
	}
	for _, rj := range rep.Jobs {
		if rj.ID == "ghost-1" {
			t.Fatalf("stale compaction temp leaked into the replay")
		}
	}

	// Restore surfaces the replay in the metrics an operator audits
	// after a crash.
	opts := Options{Workers: 1, Journal: j2}
	m2 := stubManager(t, opts, instantRun)
	if err := m2.Restore(rep); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	counters := m2.Metrics().JSON().Counters
	for name, want := range map[string]int64{
		"rrs_journal_compactions_total":   1,
		"rrs_journal_torn_lines_total":    1,
		"rrs_journal_replayed_jobs_total": 3,
		"rrs_jobs_restored_total":         3,
	} {
		if counters[name] != want {
			t.Errorf("%s = %d, want %d", name, counters[name], want)
		}
	}
	// The pending job finishes under its original id on the new manager.
	j3, ok := m2.Get(pending.ID())
	if !ok {
		t.Fatalf("pending job %s not restored", pending.ID())
	}
	if v := waitDone(t, j3); v.State != StateDone {
		t.Fatalf("replayed job %s: %s (%s)", v.ID, v.State, v.Error)
	}
	j2.Close()
}

func TestDrainRequeuesUnfinishedJobs(t *testing.T) {
	// The SIGTERM regression this guards: a drain that runs out of time
	// must hand unfinished accepted jobs to the next process via the
	// journal — the old Shutdown path cancelled them with terminal
	// records, silently losing accepted work.
	path := filepath.Join(t.TempDir(), "jobs.journal")
	gate := make(chan struct{})
	m1, j1, _ := journalManager(t, path, Options{Workers: 1},
		func(ctx context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			}
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	running, err := m1.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m1.Submit(uniqueSpec(2))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m1.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want deadline exceeded with the gate held", err)
	}
	if _, err := m1.Submit(uniqueSpec(3)); !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after drain = %v, want refusal", err)
	}
	if got := m1.Metrics().JSON().Counters["rrs_jobs_requeued_total"]; got != 2 {
		t.Fatalf("rrs_jobs_requeued_total = %d, want 2 withheld terminal records", got)
	}
	close(gate)
	j1.Close()

	// Restart: both jobs replay as pending under their original ids and
	// complete. Nothing was lost, nothing runs twice (each id maps to
	// one job with one terminal state).
	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep.Pending != 2 || len(rep.Jobs) != 2 {
		t.Fatalf("replay = %d jobs, %d pending; want both drained jobs pending", len(rep.Jobs), rep.Pending)
	}
	m2 := stubManager(t, Options{Workers: 1, Journal: j2}, instantRun)
	if err := m2.Restore(rep); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for _, id := range []string{running.ID(), queued.ID()} {
		j, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %s lost across the drain", id)
		}
		if v := waitDone(t, j); v.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, v.State, v.Error)
		}
	}
}

func TestDrainCompletesJobsWhenBudgetAllows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	m1, j1, _ := journalManager(t, path, Options{Workers: 1}, instantRun)
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		j, err := m1.Submit(uniqueSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Drain(ctx); err != nil {
		t.Fatalf("Drain with a generous budget: %v", err)
	}
	for _, id := range ids {
		j, ok := m1.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v := j.Snapshot(); v.State != StateDone {
			t.Fatalf("job %s: %s, want done before the drain returned", id, v.State)
		}
	}
	j1.Close()

	// The journal carries them as terminal: a restart re-serves results,
	// re-enqueues nothing.
	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if rep.Pending != 0 || rep.Results != 3 {
		t.Fatalf("replay = %d pending, %d results; want 0/3", rep.Pending, rep.Results)
	}
}
