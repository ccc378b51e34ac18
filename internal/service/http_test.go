package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// newTestServer wires a stubbed manager behind httptest.
func newTestServer(t *testing.T, opts Options,
	fn func(ctx context.Context, spec Spec, progress func(done, total int64)) (sim.Result, error)) (*httptest.Server, *Manager) {
	t.Helper()
	m := stubManager(t, opts, fn)
	srv := httptest.NewServer(Handler(m))
	t.Cleanup(srv.Close)
	return srv, m
}

func instantRun(_ context.Context, spec Spec, progress func(int64, int64)) (sim.Result, error) {
	progress(1, 1)
	return sim.Result{IPC: float64(spec.Seed), Instructions: 42}, nil
}

func TestHandlerTable(t *testing.T) {
	// Every run blocks until the test ends, and a first job holds the
	// only worker, so the "submit ok" job is still queued when its 201
	// body is written.
	started, release := make(chan struct{}, 1), make(chan struct{})
	srv, m := newTestServer(t, Options{Workers: 1},
		func(_ context.Context, _ Spec, _ func(int64, int64)) (sim.Result, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return sim.Result{}, nil
		})
	t.Cleanup(func() { close(release) })
	if _, err := m.Submit(uniqueSpec(1)); err != nil {
		t.Fatal(err)
	}
	<-started

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantSubstr string
	}{
		{"health", http.MethodGet, "/healthz", "", http.StatusOK, `"status": "ok"`},
		{"submit ok", http.MethodPost, "/v1/jobs",
			`{"workloads":["bzip2"],"mitigation":"rrs","scale":16,"epochs":1,"seed":9}`,
			http.StatusCreated, `"state": "queued"`},
		{"submit bad json", http.MethodPost, "/v1/jobs", `{"workloads":`,
			http.StatusBadRequest, "decoding spec"},
		{"submit unknown field", http.MethodPost, "/v1/jobs", `{"wrklds":["bzip2"]}`,
			http.StatusBadRequest, "unknown field"},
		{"submit workers field", http.MethodPost, "/v1/jobs",
			`{"workloads":["bzip2"],"workers":2}`,
			http.StatusBadRequest, `unknown field \"workers\"`},
		{"sweep base workers field", http.MethodPost, "/v1/sweeps",
			`{"base":{"workloads":["bzip2"],"workers":2},"axes":{"seeds":[1,2]}}`,
			http.StatusBadRequest, `unknown field \"workers\"`},
		{"submit unknown workload", http.MethodPost, "/v1/jobs", `{"workloads":["doom"]}`,
			http.StatusBadRequest, "unknown workload"},
		{"submit unknown mitigation", http.MethodPost, "/v1/jobs",
			`{"workloads":["bzip2"],"mitigation":"tape"}`,
			http.StatusBadRequest, "unknown mitigation"},
		{"get missing", http.MethodGet, "/v1/jobs/job-999999", "",
			http.StatusNotFound, "no such job"},
		{"result missing", http.MethodGet, "/v1/jobs/job-999999/result", "",
			http.StatusNotFound, "no such job"},
		{"delete missing", http.MethodDelete, "/v1/jobs/job-999999", "",
			http.StatusNotFound, "no such job"},
		{"list", http.MethodGet, "/v1/jobs", "", http.StatusOK, `"jobs"`},
		{"metrics prometheus", http.MethodGet, "/metrics", "",
			http.StatusOK, "# TYPE rrs_jobs_submitted_total counter"},
		{"metrics json", http.MethodGet, "/metrics?format=json", "",
			http.StatusOK, `"counters"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path,
				strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			body := string(raw)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body: %s",
					resp.StatusCode, tc.wantStatus, body)
			}
			if !strings.Contains(body, tc.wantSubstr) {
				t.Errorf("body missing %q:\n%s", tc.wantSubstr, body)
			}
		})
	}
}

func TestJobLifecycleOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1}, instantRun)
	client := NewClient(srv.URL)
	client.PollInterval = 5 * time.Millisecond
	ctx := context.Background()

	if err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Workloads: []string{"bzip2"}, Mitigation: MitRRS, Scale: 16, Epochs: 1, Seed: 5}
	v, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.Hash != spec.Hash() {
		t.Fatalf("submit view = %+v", v)
	}
	res, err := client.Result(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC != 5 || res.Instructions != 42 {
		t.Fatalf("result = %+v", res)
	}

	// Resubmission: answered from cache over the wire.
	v2, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.CacheHit || v2.State != StateDone {
		t.Fatalf("resubmission = %+v, want instant cache hit", v2)
	}
	res2, err := client.Result(ctx, v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res2.IPC != res.IPC {
		t.Error("cached result differs over HTTP")
	}

	// The job listing shows both, newest last.
	jv, err := client.Job(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jv.State != StateDone || jv.RunSeconds < 0 {
		t.Fatalf("job view = %+v", jv)
	}

	// DELETE on a finished job retires the record.
	if err := client.Cancel(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Job(ctx, v.ID); err == nil {
		t.Error("deleted job still listed")
	}
}

func TestCancelOverHTTP(t *testing.T) {
	started := make(chan struct{})
	srv, _ := newTestServer(t, Options{Workers: 1},
		func(ctx context.Context, _ Spec, _ func(int64, int64)) (sim.Result, error) {
			close(started)
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		})
	client := NewClient(srv.URL)
	ctx := context.Background()
	v, err := client.Submit(ctx, Spec{Workloads: []string{"bzip2"}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := client.Cancel(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		jv, err := client.Job(ctx, v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jv.State == StateCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", jv.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// GET .../result on a cancelled job reports 410 Gone.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("result status = %d, want 410", resp.StatusCode)
	}
}

func TestResultPendingReturns202(t *testing.T) {
	release := make(chan struct{})
	srv, _ := newTestServer(t, Options{Workers: 1},
		func(_ context.Context, _ Spec, _ func(int64, int64)) (sim.Result, error) {
			<-release
			return sim.Result{}, nil
		})
	defer close(release)
	var v JobView
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workloads":["bzip2"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("pending result status = %d, want 202", resp.StatusCode)
	}
}

func TestFailedJobResultReports422(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1},
		func(context.Context, Spec, func(int64, int64)) (sim.Result, error) {
			return sim.Result{}, context.DeadlineExceeded
		})
	client := NewClient(srv.URL)
	client.PollInterval = 5 * time.Millisecond
	ctx := context.Background()
	v, err := client.Submit(ctx, Spec{Workloads: []string{"bzip2"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Result(ctx, v.ID); err == nil ||
		!strings.Contains(err.Error(), "422") {
		t.Fatalf("Result error = %v, want a 422 failure", err)
	}
}

func TestReadyzSplitFromHealthz(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	srv, m := newTestServer(t, Options{Workers: 1, AdmissionWatermark: 2},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			<-gate
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client := NewClient(srv.URL)

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Idle: both green, and the client helpers agree.
	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("idle /readyz = %d, want 200", resp.StatusCode)
	}
	if err := client.Ready(ctx); err != nil {
		t.Fatalf("Client.Ready idle: %v", err)
	}

	// Backlog at the watermark: not ready (503 + Retry-After), but
	// alive — the node is degraded, not dead, and a load balancer must
	// be able to tell. Fill to exactly the watermark: one job running
	// (off the queue) plus two queued.
	if _, err := m.Submit(uniqueSpec(1)); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, busy, _ := m.Load(); busy == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never claimed the first job")
		}
		time.Sleep(time.Millisecond)
	}
	for seed := uint64(2); seed <= 3; seed++ {
		if _, err := m.Submit(uniqueSpec(seed)); err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
	}
	resp := get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded /readyz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("overloaded /readyz missing Retry-After")
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("overloaded /healthz = %d, want 200 (alive)", resp.StatusCode)
	}
	// Client.Ready reports the instantaneous verdict instead of
	// retrying the 503 into a timeout.
	start := time.Now()
	err := client.Ready(ctx)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("Client.Ready overloaded = %v, want 503 APIError", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Client.Ready took %v; a probe must not retry", elapsed)
	}
}

func TestReadyzDraining(t *testing.T) {
	srv, m := newTestServer(t, Options{Workers: 1}, instantRun)
	m.StartDrain()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "draining" {
		t.Fatalf("status = %q, want draining", body.Status)
	}
	// Submissions now refuse with 503 + Retry-After so clients move on.
	raw, _ := json.Marshal(uniqueSpec(1))
	post, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %d, want 503", post.StatusCode)
	}
	if post.Header.Get("Retry-After") == "" {
		t.Fatalf("draining submit missing Retry-After")
	}
}
