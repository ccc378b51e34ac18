package chaos

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/sim"
)

// retarget rewrites every request onto the current backend URL, so one
// client survives the backend being torn down and restarted at a new
// address — the httptest analogue of a service DNS name outliving a
// process restart.
type retarget struct {
	mu     sync.Mutex
	target *url.URL
}

func (rt *retarget) set(t *testing.T, raw string) {
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatalf("retarget: %v", err)
	}
	rt.mu.Lock()
	rt.target = u
	rt.mu.Unlock()
}

func (rt *retarget) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	u := rt.target
	rt.mu.Unlock()
	r2 := req.Clone(req.Context())
	r2.URL.Scheme = u.Scheme
	r2.URL.Host = u.Host
	return http.DefaultTransport.RoundTrip(r2)
}

const poisonSeed = 666

// TestChaosSoakSweepSurvivesRestartAndPanic is the end-to-end soak the
// robustness work is accountable to: a 20-job sweep driven through a
// fault-injecting transport (drops, 5xx, latency), with a simulated
// kill -9 and journal-replay restart mid-sweep. Every result must be
// delivered exactly once with the right payload, and a deterministically
// panicking spec must fail alone, after one run, while the server keeps
// serving.
func TestChaosSoakSweepSurvivesRestartAndPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	path := filepath.Join(t.TempDir(), "jobs.journal")

	// Worker-side fault: the poison spec panics on every run, standing in
	// for a deterministic engine bug.
	exec := func(_ context.Context, spec service.Spec, progress func(int64, int64)) (sim.Result, error) {
		if spec.Seed == poisonSeed {
			panic("chaos: injected worker panic")
		}
		time.Sleep(40 * time.Millisecond)
		if progress != nil {
			progress(1, 1)
		}
		return sim.Result{IPC: float64(spec.Seed)}, nil
	}
	newManager := func(j *service.Journal) *service.Manager {
		return service.NewManager(service.Options{
			Workers:    2,
			QueueDepth: 64,
			Journal:    j,
			Run:        exec,
		})
	}

	j1, rep0, err := service.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep0.Jobs) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(rep0.Jobs))
	}
	m1 := newManager(j1)
	srv1 := httptest.NewServer(service.Handler(m1))

	// Network-side chaos: ≥10% of requests are dropped or answered with a
	// synthetic 503, and some are delayed, all on a seeded schedule.
	rt := &retarget{}
	rt.set(t, srv1.URL)
	faults := NewTransport(Faults{
		Seed:      23,
		DropRate:  0.10,
		FailRate:  0.05,
		DelayRate: 0.15,
		MaxDelay:  2 * time.Millisecond,
	}, rt)
	client := service.NewClient("http://rrs-soak.invalid",
		service.WithHTTPClient(&http.Client{Transport: faults}),
		service.WithRetryPolicy(resilience.Policy{
			MaxAttempts: -1, // ride out the restart window
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
		}))
	client.PollInterval = 5 * time.Millisecond

	const sweep = 20
	type outcome struct {
		seed uint64
		res  sim.Result
		err  error
	}
	results := make(chan outcome, sweep)
	for seed := uint64(1); seed <= sweep; seed++ {
		go func(seed uint64) {
			res, err := client.Run(ctx, chaosSpec(seed))
			results <- outcome{seed: seed, res: res, err: err}
		}(seed)
	}

	var m2 *service.Manager
	var pendingAtCrash int
	got := make(map[uint64]float64, sweep)
	for len(got) < sweep {
		select {
		case <-ctx.Done():
			t.Fatalf("soak timed out with %d/%d results; chaos stats: %v",
				len(got), sweep, statsLine(faults))
		case o := <-results:
			if o.err != nil {
				t.Fatalf("seed %d: %v", o.seed, o.err)
			}
			if _, dup := got[o.seed]; dup {
				t.Fatalf("seed %d delivered twice", o.seed)
			}
			got[o.seed] = o.res.IPC
		}

		if len(got) == 3 && m2 == nil {
			// kill -9: the journal stops cold, THEN the server vanishes.
			// The dying manager's in-memory wind-down below must not leak
			// terminal states the dead process never persisted.
			j1.Close()
			srv1.CloseClientConnections()
			srv1.Close()
			sctx, scancel := context.WithTimeout(context.Background(), 20*time.Second)
			m1.Shutdown(sctx)
			scancel()

			j2, rep, err := service.OpenJournal(path)
			if err != nil {
				t.Fatalf("reopening journal: %v", err)
			}
			defer j2.Close()
			pendingAtCrash = rep.Pending
			m2 = newManager(j2)
			if err := m2.Restore(rep); err != nil {
				t.Fatalf("restore: %v", err)
			}
			srv2 := httptest.NewServer(service.Handler(m2))
			defer srv2.Close()
			defer shutdownManager(t, m2)
			rt.set(t, srv2.URL)
		}
	}

	for seed := uint64(1); seed <= sweep; seed++ {
		if ipc, ok := got[seed]; !ok || ipc != float64(seed) {
			t.Errorf("seed %d: result (%v, %v), want IPC %d", seed, ipc, ok, seed)
		}
	}
	if pendingAtCrash == 0 {
		t.Error("restart replayed no pending jobs; the crash window closed before the sweep reached the server")
	}

	// The chaos actually happened: the wire faulted.
	reqs, dropped, failed, _ := faults.Stats()
	if dropped+failed == 0 {
		t.Errorf("no network faults injected across %d requests", reqs)
	}

	// Poison: an injected worker panic fails its own job — visible to the
	// client as a terminal error, not a crash — and the server keeps
	// serving afterwards.
	_, err = client.Run(ctx, chaosSpec(poisonSeed))
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("poison spec returned %v, want a worker-panic failure", err)
	}
	if n := m2.Metrics().JSON().Counters["rrs_worker_panics_total"]; n != 1 {
		t.Errorf("rrs_worker_panics_total = %d, want 1 (the poison spec runs once)", n)
	}
	if err := client.Health(ctx); err != nil {
		t.Fatalf("server unhealthy after worker panic: %v", err)
	}
	if _, err := client.Run(ctx, chaosSpec(sweep+1)); err != nil {
		t.Fatalf("post-panic job failed: %v", err)
	}
}

func statsLine(tr *Transport) string {
	reqs, dropped, failed, delayed := tr.Stats()
	return fmt.Sprintf("requests=%d dropped=%d failed=%d delayed=%d", reqs, dropped, failed, delayed)
}

func shutdownManager(t *testing.T, m *service.Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}
