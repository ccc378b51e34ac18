package service

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestDeleteWhileRunningHTTPRace hammers DELETE on a job that is
// mid-simulation. The first DELETE cancels; concurrent and subsequent
// ones race Cancel/Remove against the worker finalizing the job. Every
// response must be 200 (cancelled or retired) or 404 (already removed
// by a concurrent DELETE) — never a 409 from the Get/Cancel/Remove
// window — and the job must end terminal. Run under -race.
func TestDeleteWhileRunningHTTPRace(t *testing.T) {
	started := make(chan struct{})
	srv, m := newTestServer(t, Options{Workers: 1},
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

	const deleters = 16
	statuses := make(chan int, deleters)
	var wg sync.WaitGroup
	for i := 0; i < deleters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodDelete, srv.URL+apiPrefix+"/"+j.ID(), nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("delete: %v", err)
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(statuses)
	for code := range statuses {
		if code != http.StatusOK && code != http.StatusNotFound {
			t.Fatalf("DELETE returned %d; want 200 or 404", code)
		}
	}
	v := waitDone(t, j)
	if !v.State.terminal() {
		t.Fatalf("job state %s after DELETE storm; want terminal", v.State)
	}
}

// TestCancelRemoveRaceManager races Cancel, Remove, Snapshot and List
// against a pool of short-lived jobs, exercising the job-table and
// per-job locking under -race. Outcomes are unconstrained (each call may
// legitimately win or lose its race); the invariant is that every job
// reaches a terminal state and no call panics or deadlocks.
func TestCancelRemoveRaceManager(t *testing.T) {
	m := stubManager(t, Options{Workers: 4, QueueDepth: 64},
		func(ctx context.Context, _ Spec, progress func(int64, int64)) (sim.Result, error) {
			progress(1, 2)
			select {
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			case <-time.After(time.Millisecond):
				progress(2, 2)
				return sim.Result{IPC: 1}, nil
			}
		})

	const n = 24
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := m.Submit(uniqueSpec(uint64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			m.Cancel(id)
			m.Remove(id)
		}(j.ID())
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				j.Snapshot()
				m.List()
			}
		}(j)
	}
	wg.Wait()
	for _, j := range jobs {
		v := waitDone(t, j)
		if !v.State.terminal() {
			t.Fatalf("job %s state %s; want terminal", v.ID, v.State)
		}
		if v.Progress > 1 {
			t.Fatalf("job %s progress %v > 1", v.ID, v.Progress)
		}
	}
}

// TestConcurrentSubmitsAndCacheHits runs the full submit path from
// several goroutines over a small set of specs, so completions write
// the result store while cache-hit submits read it concurrently.
func TestConcurrentSubmitsAndCacheHits(t *testing.T) {
	m := stubManager(t, Options{Workers: 4, QueueDepth: 128},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				j, err := m.Submit(uniqueSpec(uint64(i%6 + 1)))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				v := waitDone(t, j)
				if v.State != StateDone {
					t.Errorf("job %s state %s: %s", v.ID, v.State, v.Error)
				}
				if res, _ := m.CachedResult(j.Hash()); res.IPC != float64(i%6+1) {
					t.Errorf("job %s IPC = %v, want %d", v.ID, res.IPC, i%6+1)
				}
			}
		}(g)
	}
	wg.Wait()
}
