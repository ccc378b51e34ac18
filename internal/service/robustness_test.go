package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/resilience"
	"repro/internal/sim"
)

func counter(m *Manager, name string) int64 {
	return m.Metrics().JSON().Counters[name]
}

func TestWorkerPanicIsolatesJob(t *testing.T) {
	var poisonRuns atomic.Int32
	m := stubManager(t, Options{Workers: 1},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			if spec.Seed == 666 {
				poisonRuns.Add(1)
				panic("engine bug")
			}
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	poison, err := m.Submit(uniqueSpec(666))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, poison)
	if v.State != StateFailed || !strings.Contains(v.Error, "panic") {
		t.Fatalf("poison job = %s (%s), want failed with a panic message", v.State, v.Error)
	}
	if n := poisonRuns.Load(); n != 1 {
		t.Errorf("poison spec ran %d times, want 1", n)
	}
	if n := counter(m, "rrs_worker_panics_total"); n != 1 {
		t.Errorf("rrs_worker_panics_total = %d, want 1", n)
	}
	// The worker that recovered the panic keeps serving.
	after, err := m.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, after); v.State != StateDone {
		t.Fatalf("job after panic = %s (%s)", v.State, v.Error)
	}
}

// TestRunErrorFailsJobOnce pins that a failed run is final: even an
// error marked transient fails its job after exactly one run, since a
// deterministic simulation would fail the same way again.
func TestRunErrorFailsJobOnce(t *testing.T) {
	var runs atomic.Int32
	m := stubManager(t, Options{Workers: 1},
		func(context.Context, Spec, func(int64, int64)) (sim.Result, error) {
			runs.Add(1)
			return sim.Result{}, resilience.MarkTransient(errors.New("blip"))
		})
	j, err := m.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, j)
	if v.State != StateFailed || !strings.Contains(v.Error, "blip") {
		t.Fatalf("job = %s (%s), want failed with the run's error", v.State, v.Error)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("runs = %d, want 1", n)
	}
	if n := counter(m, "rrs_runs_started_total"); n != 1 {
		t.Errorf("rrs_runs_started_total = %d, want 1", n)
	}
	if n := counter(m, "rrs_jobs_failed_total"); n != 1 {
		t.Errorf("rrs_jobs_failed_total = %d, want 1", n)
	}
}

func TestPermanentFailureNotRetried(t *testing.T) {
	var runs atomic.Int32
	m := stubManager(t, Options{Workers: 1},
		func(context.Context, Spec, func(int64, int64)) (sim.Result, error) {
			runs.Add(1)
			return sim.Result{}, errors.New("deterministic engine error")
		})
	j, err := m.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, j)
	if v.State != StateFailed || !strings.Contains(v.Error, "deterministic engine error") {
		t.Fatalf("job = %s (%s), want failed with the run's error", v.State, v.Error)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("runs = %d, want 1", n)
	}
	if n := counter(m, "rrs_runs_started_total"); n != 1 {
		t.Errorf("rrs_runs_started_total = %d, want 1", n)
	}
}

func TestSubmitCoalescesOntoInflightJob(t *testing.T) {
	release := make(chan struct{})
	m := stubManager(t, Options{Workers: 1},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			<-release
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	first, err := m.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	// A retried POST after a dropped response lands here: same hash while
	// the job is still in flight must return the same job, not a second
	// simulation.
	second, err := m.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("duplicate submit created a new job: %s vs %s", first.ID(), second.ID())
	}
	if n := counter(m, "rrs_jobs_coalesced_total"); n != 1 {
		t.Errorf("rrs_jobs_coalesced_total = %d, want 1", n)
	}
	close(release)
	waitDone(t, first)

	// Once the job is terminal its result is served by the cache instead;
	// the inflight entry must be gone, so this is a cache-hit job.
	third, err := m.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if third == first {
		t.Fatal("terminal job still coalescing new submissions")
	}
	if v := waitDone(t, third); !v.CacheHit {
		t.Errorf("post-completion resubmit = %+v, want a cache hit", v)
	}
}

func TestRunSyncReturnsResultWhenCancelRacesCompletion(t *testing.T) {
	m := stubManager(t, Options{Workers: 1}, instantRun)
	spec := uniqueSpec(1)
	if _, err := m.RunSync(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	// The job is now a cache hit: born done. A context that expires at
	// the same moment must still deliver the finished result — the
	// shutdown-race fix re-checks Done() after Cancel instead of
	// discarding a completed simulation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 50; i++ { // exercise both select arms
		res, err := m.RunSync(ctx, spec)
		if err != nil {
			t.Fatalf("iteration %d: RunSync dropped a completed result: %v", i, err)
		}
		if res.IPC != float64(spec.Seed) {
			t.Fatalf("iteration %d: IPC = %v", i, res.IPC)
		}
	}
}

func TestSubmitOversizeBodyRejected(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1}, instantRun)
	big := append([]byte(`{"workloads":["`), bytes.Repeat([]byte("a"), maxSpecBytes)...)
	big = append(big, []byte(`"]}`)...)
	resp, err := http.Post(srv.URL+apiPrefix, "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "exceeds") {
		t.Errorf("body %q does not name the limit", raw)
	}
}

func TestBackpressureCarriesRetryAfter(t *testing.T) {
	// started is buffered for every job this test enqueues: once release
	// is closed, the worker may claim the still-queued second job before
	// shutdown closes the queue, and an unbuffered send would wedge the
	// stub — ignoring its context — past Shutdown's force-cancel.
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	srv, _ := newTestServer(t, Options{Workers: 1, QueueDepth: 1},
		func(_ context.Context, _ Spec, _ func(int64, int64)) (sim.Result, error) {
			started <- struct{}{}
			<-release
			return sim.Result{}, nil
		})
	defer close(release)

	post := func(seed uint64) *http.Response {
		t.Helper()
		body := fmt.Sprintf(`{"workloads":["bzip2"],"scale":16,"epochs":1,"seed":%d}`, seed)
		resp, err := http.Post(srv.URL+apiPrefix, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := post(1) // claimed by the only worker…
	defer first.Body.Close()
	<-started
	second := post(2) // …fills the depth-1 queue…
	defer second.Body.Close()
	third := post(3) // …so this one must be shed with a wait hint.
	defer third.Body.Close()
	if third.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", third.StatusCode)
	}
	if third.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After hint")
	}

	// A pending result poll gets the same courtesy on its 202.
	var v JobView
	if err := json.NewDecoder(first.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + apiPrefix + "/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("result status = %d, want 202", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("202 carries no Retry-After hint")
	}
}

func TestRecoverMiddlewareContainsHandlerPanic(t *testing.T) {
	met := NewMetrics()
	met.Counter("rrs_http_panics_total", "")
	h := recoverMiddleware(met, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal error") {
		t.Errorf("body %q does not report the contained panic", rec.Body.String())
	}
	if n := met.JSON().Counters["rrs_http_panics_total"]; n != 1 {
		t.Errorf("rrs_http_panics_total = %d, want 1", n)
	}
}
