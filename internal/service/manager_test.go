package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// stubManager builds a manager whose runJob is replaced by fn, so
// scheduling behaviour is observable without real simulations. The
// substitution happens before any Submit, and the queue's mutex orders
// it before every worker read.
func stubManager(t *testing.T, opts Options,
	fn func(ctx context.Context, spec Spec, progress func(done, total int64)) (sim.Result, error)) *Manager {
	t.Helper()
	m := NewManager(opts)
	m.runJob = fn
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

// uniqueSpec returns a valid spec whose seed makes its hash unique.
func uniqueSpec(seed uint64) Spec {
	return Spec{Workloads: []string{"bzip2"}, Mitigation: MitRRS, Scale: 16, Epochs: 1, Seed: seed}
}

func waitDone(t *testing.T, j *Job) JobView {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
	return j.Snapshot()
}

func TestFIFOCompletionOrder(t *testing.T) {
	// One worker, more jobs than workers: completions must follow
	// submission order exactly.
	var mu sync.Mutex
	var order []uint64
	m := stubManager(t, Options{Workers: 1, QueueDepth: 32},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			mu.Lock()
			order = append(order, spec.Seed)
			mu.Unlock()
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})

	const n = 8
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		j, err := m.Submit(uniqueSpec(uint64(i + 1)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	for _, j := range jobs {
		v := waitDone(t, j)
		if v.State != StateDone {
			t.Fatalf("job %s state = %s (%s)", v.ID, v.State, v.Error)
		}
		if v.Progress != 1 {
			t.Errorf("job %s progress = %v, want 1", v.ID, v.Progress)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, seed := range order {
		if seed != uint64(i+1) {
			t.Fatalf("completion order %v is not FIFO", order)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	m := stubManager(t, Options{Workers: 1},
		func(ctx context.Context, _ Spec, _ func(int64, int64)) (sim.Result, error) {
			close(started)
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		})
	j, err := m.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if ok, err := m.Cancel(j.ID()); !ok || err != nil {
		t.Fatalf("Cancel = (%v, %v)", ok, err)
	}
	v := waitDone(t, j)
	if v.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", v.State)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	release := make(chan struct{})
	var runs sync.Map
	m := stubManager(t, Options{Workers: 1},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			runs.Store(spec.Seed, true)
			<-release
			return sim.Result{}, nil
		})
	blocker, err := m.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(uniqueSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := m.Cancel(queued.ID()); !ok || err != nil {
		t.Fatalf("Cancel = (%v, %v)", ok, err)
	}
	if v := waitDone(t, queued); v.State != StateCancelled {
		t.Fatalf("queued job state = %s, want cancelled", v.State)
	}
	close(release)
	waitDone(t, blocker)
	if _, ran := runs.Load(uint64(2)); ran {
		t.Error("cancelled queued job was still executed")
	}
}

func TestQueueFullRejects(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	m := stubManager(t, Options{Workers: 1, QueueDepth: 1},
		func(context.Context, Spec, func(int64, int64)) (sim.Result, error) {
			<-release
			return sim.Result{}, nil
		})
	if _, err := m.Submit(uniqueSpec(1)); err != nil { // claimed by the worker
		t.Fatal(err)
	}
	// Give the worker a moment to pop job 1 off the queue.
	deadline := time.Now().Add(2 * time.Second)
	for m.queue.Len() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(uniqueSpec(2)); err != nil { // fills the queue
		t.Fatal(err)
	}
	_, err := m.Submit(uniqueSpec(3))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit error = %v, want ErrQueueFull", err)
	}
	if got := m.Metrics().JSON().Counters["rrs_jobs_rejected_total"]; got != 1 {
		t.Errorf("rrs_jobs_rejected_total = %d, want 1", got)
	}
}

func TestJobTimeoutFails(t *testing.T) {
	m := stubManager(t, Options{Workers: 1, DefaultTimeout: 20 * time.Millisecond},
		func(ctx context.Context, _ Spec, _ func(int64, int64)) (sim.Result, error) {
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		})
	j, err := m.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, j)
	if v.State != StateFailed {
		t.Fatalf("state = %s, want failed", v.State)
	}
	if v.Error == "" {
		t.Error("timeout produced no error message")
	}
}

func TestShutdownDrainsRunningCancelsQueued(t *testing.T) {
	started := make(chan struct{})
	m := NewManager(Options{Workers: 1})
	m.runJob = func(_ context.Context, _ Spec, _ func(int64, int64)) (sim.Result, error) {
		close(started)
		time.Sleep(50 * time.Millisecond)
		return sim.Result{IPC: 1}, nil
	}
	running, err := m.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker owns job 1; job 2 will sit in the queue
	queued, err := m.Submit(uniqueSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if v := running.Snapshot(); v.State != StateDone {
		t.Errorf("running job drained to %s, want done", v.State)
	}
	if v := queued.Snapshot(); v.State != StateCancelled {
		t.Errorf("queued job ended %s, want cancelled", v.State)
	}
	if _, err := m.Submit(uniqueSpec(3)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after shutdown = %v, want ErrClosed", err)
	}
}

func TestConcurrentSubmitListScrape(t *testing.T) {
	// Hammer the manager from many goroutines while scraping; run with
	// -race this is the service's main concurrency check.
	m := stubManager(t, Options{Workers: 4, QueueDepth: 256},
		func(_ context.Context, spec Spec, progress func(int64, int64)) (sim.Result, error) {
			progress(1, 2)
			progress(2, 2)
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	const n = 64
	var wg sync.WaitGroup
	jobs := make(chan *Job, n)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				j, err := m.Submit(uniqueSpec(uint64(g*100 + i + 1)))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				jobs <- j
			}
		}(g)
	}
	stop := make(chan struct{})
	observers := make(chan struct{})
	go func() { // concurrent observers
		defer close(observers)
		for {
			select {
			case <-stop:
				return
			default:
				m.List()
				m.Metrics().JSON()
			}
		}
	}()
	wg.Wait()
	for i := 0; i < n; i++ {
		waitDone(t, <-jobs)
	}
	close(stop)
	<-observers
	if got := m.Metrics().JSON().Counters["rrs_jobs_done_total"]; got != n {
		t.Errorf("rrs_jobs_done_total = %d, want %d", got, n)
	}
}

// TestCacheDeterminism runs a real (tiny) simulation twice and checks
// the second submission is answered from the cache with an identical
// result and no second run.
func TestCacheDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	m := NewManager(Options{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	spec := Spec{Workloads: []string{"bzip2"}, Mitigation: MitRRS,
		Scale: 256, Epochs: 1, Cores: 2, Seed: 3}

	j1, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitDone(t, j1)
	if v1.State != StateDone {
		t.Fatalf("first run %s: %s", v1.State, v1.Error)
	}
	if v1.CacheHit {
		t.Fatal("first run claims a cache hit")
	}

	j2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v2 := waitDone(t, j2)
	if v2.State != StateDone || !v2.CacheHit {
		t.Fatalf("second run state=%s cacheHit=%v, want instant cache hit", v2.State, v2.CacheHit)
	}

	r1, _ := m.CachedResult(j1.Hash())
	r2, _ := m.CachedResult(j2.Hash())
	if r1.IPC != r2.IPC || r1.Instructions != r2.Instructions ||
		r1.Accesses != r2.Accesses || r1.Cycles != r2.Cycles ||
		r1.MemStats != r2.MemStats || r1.SwapsPerEpoch != r2.SwapsPerEpoch {
		t.Errorf("cached result differs from computed result:\n%+v\n%+v", r1, r2)
	}

	counters := m.Metrics().JSON().Counters
	if counters["rrs_runs_started_total"] != 1 {
		t.Errorf("rrs_runs_started_total = %d, want 1 (cache must absorb the resubmission)",
			counters["rrs_runs_started_total"])
	}
	if counters["rrs_cache_hits_total"] != 1 {
		t.Errorf("rrs_cache_hits_total = %d, want 1", counters["rrs_cache_hits_total"])
	}
}

// TestForceParanoid: a server with ForceParanoid runs every job
// self-verifying, hashes it under the paranoid spec (so paranoid and
// plain submissions of the same knobs coalesce onto one job), and
// surfaces the mode in the job view.
func TestForceParanoid(t *testing.T) {
	var mu sync.Mutex
	var ran []Spec
	m := stubManager(t, Options{Workers: 1, ForceParanoid: true},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			mu.Lock()
			ran = append(ran, spec)
			mu.Unlock()
			return sim.Result{}, nil
		})

	plain := uniqueSpec(1)
	j, err := m.Submit(plain)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, j)
	if v.State != StateDone {
		t.Fatalf("job state %s: %s", v.State, v.Error)
	}
	if !v.Paranoid || !v.Spec.Paranoid {
		t.Fatalf("forced job view not marked paranoid: %+v", v)
	}
	forced := plain
	forced.Paranoid = true
	if j.Hash() != forced.Normalize().Hash() {
		t.Error("forced job hashed under the non-paranoid spec")
	}

	// An explicit paranoid submission of the same knobs is the same job:
	// answered from the cache, no second run.
	j2, err := m.Submit(forced)
	if err != nil {
		t.Fatal(err)
	}
	v2 := waitDone(t, j2)
	if v2.State != StateDone || !v2.CacheHit {
		t.Fatalf("paranoid resubmission state=%s cacheHit=%v, want cache hit", v2.State, v2.CacheHit)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 || !ran[0].Paranoid {
		t.Fatalf("ran %d specs (%+v), want exactly one paranoid run", len(ran), ran)
	}
}
