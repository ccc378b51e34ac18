package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// sweepOf builds a valid sweep over seeds of the test spec shape.
func sweepOf(seeds ...uint64) SweepSpec {
	return SweepSpec{
		Base: Spec{Workloads: []string{"bzip2"}, Mitigation: MitRRS, Scale: 16, Epochs: 1},
		Axes: SweepAxes{Seeds: seeds},
	}
}

func waitSweep(t *testing.T, m *Manager, sw *Sweep) SweepView {
	t.Helper()
	select {
	case <-sw.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("sweep %s did not finish: %+v", sw.ID(), m.snapshotSweep(sw, true))
	}
	return m.snapshotSweep(sw, true)
}

func TestSweepExpandDedupsNormalizedChildren(t *testing.T) {
	ss := SweepSpec{
		Base: Spec{Scale: 16, Epochs: 1, Seed: 7},
		Axes: SweepAxes{
			Mitigations: []string{MitNone, MitRRS, MitBlockHammer},
			Blacklists:  []uint32{512, 1024},
			Workloads:   []string{"hmmer", "bzip2"},
		},
	}
	if got := ss.Axes.points(); got != 12 {
		t.Fatalf("points = %d, want 12 before dedup", got)
	}
	specs, err := ss.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Normalization zeroes Blacklist for non-blockhammer children, so the
	// 2 blacklist values collapse for none and rrs: 2+2+4 children.
	if len(specs) != 8 {
		t.Fatalf("expanded to %d children, want 8:\n%+v", len(specs), specs)
	}
	seen := make(map[string]bool)
	for _, sp := range specs {
		if len(sp.Workloads) != 1 {
			t.Errorf("child %v is not single-workload", sp.Workloads)
		}
		if sp.Mitigation != MitBlockHammer && sp.Blacklist != 0 {
			t.Errorf("child %s kept blacklist %d", sp.Mitigation, sp.Blacklist)
		}
		h := sp.Hash()
		if seen[h] {
			t.Errorf("duplicate child hash %s", h)
		}
		seen[h] = true
	}
	// Expansion is deterministic: same spec, same children, same order.
	again, err := ss.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specHashes(specs), specHashes(again)) {
		t.Error("two expansions of the same sweep disagree on child order")
	}
}

func TestSweepExpandRejectsOversizedProduct(t *testing.T) {
	seeds := make([]uint64, maxSweepChildren+1)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	if _, err := sweepOf(seeds...).Expand(); err == nil {
		t.Fatalf("%d-child sweep accepted, want refusal", maxSweepChildren+1)
	}
}

// TestSweepPointsSaturatesOnOverflow: six 2048-entry axes multiply to
// 2^66, which wraps a plain int to 0 and would slip past the
// maxSweepChildren guard — points must saturate instead, and Expand
// must refuse the sweep without iterating the product.
func TestSweepPointsSaturatesOnOverflow(t *testing.T) {
	axes := SweepAxes{
		Mitigations:         make([]string, 2048),
		Blacklists:          make([]uint32, 2048),
		RowHammerThresholds: make([]int, 2048),
		Scales:              make([]int, 2048),
		Seeds:               make([]uint64, 2048),
		Workloads:           make([]string, 2048),
	}
	if got := axes.points(); got != maxSweepChildren+1 {
		t.Fatalf("points = %d, want saturation at %d", got, maxSweepChildren+1)
	}
	done := make(chan error, 1)
	go func() {
		_, err := (SweepSpec{Base: uniqueSpec(1), Axes: axes}).Expand()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("overflowing sweep accepted, want refusal")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Expand iterated an overflowed product instead of refusing up front")
	}
}

// TestCancelSweepNeverLeavesAnUncancelledChild races CancelSweep
// against the feeder. Children only ever finish by cancellation, so if
// the feeder links a child the cancel snapshot missed and nobody
// cancels it, the watcher — and this test — hangs on that child.
func TestCancelSweepNeverLeavesAnUncancelledChild(t *testing.T) {
	m := stubManager(t, Options{Workers: 2},
		func(ctx context.Context, _ Spec, _ func(int64, int64)) (sim.Result, error) {
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		})
	for i := 0; i < 50; i++ {
		base := uint64(4 * i)
		sw, created, err := m.SubmitSweep(sweepOf(base+1, base+2, base+3, base+4))
		if err != nil {
			t.Fatal(err)
		}
		if !created {
			t.Fatalf("iteration %d coalesced onto a prior sweep", i)
		}
		go m.CancelSweep(sw.ID())
		select {
		case <-sw.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("cancelled sweep %s never finished: %+v",
				sw.ID(), m.snapshotSweep(sw, true))
		}
	}
}

func TestSweepExpandRejectsInvalidChild(t *testing.T) {
	ss := sweepOf(1)
	ss.Axes.Workloads = []string{"doom"}
	if _, err := ss.Expand(); err == nil {
		t.Fatal("sweep with unknown workload accepted")
	}
}

func TestSweepRunsAggregatesAndCachesResubmission(t *testing.T) {
	var runs sync.Map
	m := stubManager(t, Options{Workers: 4},
		func(_ context.Context, spec Spec, progress func(int64, int64)) (sim.Result, error) {
			runs.Store(spec.Seed, true)
			progress(1, 1)
			return sim.Result{IPC: float64(spec.Seed), Epochs: 1, Accesses: 10}, nil
		})

	ss := sweepOf(1, 2, 3, 4)
	sw, created, err := m.SubmitSweep(ss)
	if err != nil || !created {
		t.Fatalf("SubmitSweep = (%v, %v)", created, err)
	}
	v := waitSweep(t, m, sw)
	if v.State != StateDone || v.Total != 4 || v.Done != 4 || v.CacheHits != 0 {
		t.Fatalf("first pass = %+v", v)
	}
	if v.Progress != 1 {
		t.Errorf("progress = %v, want 1", v.Progress)
	}
	if v.Stats == nil || v.Stats.Results != 4 {
		t.Fatalf("stats = %+v, want 4 results", v.Stats)
	}
	if v.Stats.MeanIPC != 2.5 || v.Stats.TotalEpochs != 4 || v.Stats.TotalAccesses != 40 {
		t.Errorf("aggregates = %+v", v.Stats)
	}
	results := m.SweepResults(sw)
	specs, _ := ss.Expand()
	for i, sp := range specs {
		res, ok := results[sp.Hash()]
		if !ok || res.IPC != float64(sp.Seed) {
			t.Errorf("child %d result = (%+v, %v)", i, res, ok)
		}
	}

	// Resubmitting the finished sweep starts a fresh parent whose
	// children are all answered from the result cache: nothing re-runs.
	runs.Range(func(k, _ any) bool { runs.Delete(k); return true })
	sw2, created2, err := m.SubmitSweep(ss)
	if err != nil || !created2 {
		t.Fatalf("resubmit = (%v, %v)", created2, err)
	}
	if sw2.ID() == sw.ID() {
		t.Fatal("resubmit after completion reused the finished sweep")
	}
	v2 := waitSweep(t, m, sw2)
	if v2.State != StateDone || v2.CacheHits != 4 {
		t.Fatalf("resubmitted sweep = state %s, %d cache hits, want done/4", v2.State, v2.CacheHits)
	}
	runs.Range(func(k, _ any) bool {
		t.Errorf("resubmission re-ran seed %v", k)
		return true
	})
	if got := m.met.JSON().Counters["rrs_sweep_children_cached_total"]; got != 4 {
		t.Errorf("rrs_sweep_children_cached_total = %d, want 4", got)
	}
	// Aggregates over cached results are bit-identical to the first run.
	if !reflect.DeepEqual(v.Stats, v2.Stats) {
		t.Errorf("cached aggregate drifted:\nfirst  %+v\nsecond %+v", v.Stats, v2.Stats)
	}
}

// TestLargeSweepResubmitRunsNothing resubmits a finished 280-child
// sweep, children in order, under default Options: every child is
// answered from the result store, so nothing re-runs and the results
// are bit-identical to the first pass.
func TestLargeSweepResubmitRunsNothing(t *testing.T) {
	const n = 280
	m := stubManager(t, Options{},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			return sim.Result{IPC: float64(spec.Seed), Accesses: int64(spec.Seed)}, nil
		})
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	ss := sweepOf(seeds...)

	sw, _, err := m.SubmitSweep(ss)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitSweep(t, m, sw); v.State != StateDone || v.Done != n {
		t.Fatalf("first pass = state %s, %d/%d done", v.State, v.Done, v.Total)
	}
	first := m.SweepResults(sw)
	runs := counter(m, "rrs_runs_started_total")

	sw2, _, err := m.SubmitSweep(ss)
	if err != nil {
		t.Fatal(err)
	}
	v2 := waitSweep(t, m, sw2)
	if v2.State != StateDone || v2.CacheHits != n {
		t.Fatalf("resubmission = state %s, %d cache hits, want done/%d", v2.State, v2.CacheHits, n)
	}
	if got := counter(m, "rrs_runs_started_total") - runs; got != 0 {
		t.Errorf("resubmission started %d runs, want 0", got)
	}
	if again := m.SweepResults(sw2); len(first) != n || !reflect.DeepEqual(first, again) {
		t.Errorf("resubmitted results differ from the first pass (%d vs %d)", len(again), len(first))
	}
}

func TestSweepSubmissionsCoalesceWhileRunning(t *testing.T) {
	release := make(chan struct{})
	m := stubManager(t, Options{Workers: 1},
		func(ctx context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			}
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})

	ss := sweepOf(1, 2)
	sw, created, err := m.SubmitSweep(ss)
	if err != nil || !created {
		t.Fatalf("SubmitSweep = (%v, %v)", created, err)
	}
	dup, created2, err := m.SubmitSweep(ss)
	if err != nil {
		t.Fatal(err)
	}
	if created2 || dup != sw {
		t.Fatalf("concurrent duplicate got its own sweep (%s vs %s)", dup.ID(), sw.ID())
	}
	if got := m.met.JSON().Counters["rrs_sweeps_coalesced_total"]; got != 1 {
		t.Errorf("rrs_sweeps_coalesced_total = %d, want 1", got)
	}
	close(release)
	if v := waitSweep(t, m, sw); v.State != StateDone {
		t.Fatalf("sweep = %s (%s)", v.State, v.Error)
	}
}

func TestSweepCancelStopsChildrenAndRetires(t *testing.T) {
	started := make(chan struct{}, 4)
	m := stubManager(t, Options{Workers: 1},
		func(ctx context.Context, _ Spec, _ func(int64, int64)) (sim.Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		})

	sw, _, err := m.SubmitSweep(sweepOf(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if ok, err := m.CancelSweep(sw.ID()); !ok || err != nil {
		t.Fatalf("CancelSweep = (%v, %v)", ok, err)
	}
	v := waitSweep(t, m, sw)
	if v.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", v.State)
	}
	// Cancelling a terminal sweep is a no-op; removal retires it.
	if ok, err := m.CancelSweep(sw.ID()); ok || err != nil {
		t.Fatalf("second cancel = (%v, %v), want (false, nil)", ok, err)
	}
	if err := m.RemoveSweep(sw.ID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.GetSweep(sw.ID()); ok {
		t.Error("removed sweep still listed")
	}
	if _, err := m.CancelSweep(sw.ID()); err == nil {
		t.Error("cancel of removed sweep did not report ErrSweepNotFound")
	}
}

func TestSweepResumesFromJournalAfterCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	gate := make(chan struct{})
	m1, j1, _ := journalManager(t, path, Options{Workers: 1},
		func(ctx context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			if spec.Seed >= 3 {
				select {
				case <-gate:
				case <-ctx.Done():
					return sim.Result{}, ctx.Err()
				}
			}
			return sim.Result{IPC: float64(spec.Seed), Epochs: 1}, nil
		})
	defer close(gate)

	ss := sweepOf(1, 2, 3, 4)
	sw1, _, err := m1.SubmitSweep(ss)
	if err != nil {
		t.Fatal(err)
	}
	// Let the first two children finish; the third wedges on the gate.
	// The feeder links children concurrently with the worker running
	// them, so also wait for all four accept records to be journaled.
	deadline := time.Now().Add(10 * time.Second)
	for v := m1.snapshotSweep(sw1, false); v.Done < 2 || v.Linked < 4; v = m1.snapshotSweep(sw1, false) {
		if time.Now().After(deadline) {
			t.Fatalf("sweep never reached 2 done children: %+v", m1.snapshotSweep(sw1, true))
		}
		time.Sleep(time.Millisecond)
	}

	// kill -9: the journal stops recording first, so the cancellations
	// the (short-fused, force-cancelling) shutdown forces are never
	// journaled — exactly like a crash.
	j1.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	m1.Shutdown(sctx)
	scancel()

	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep.PendingSweeps != 1 {
		t.Fatalf("replay = %d pending sweeps, want 1", rep.PendingSweeps)
	}
	if rep.Pending != 2 || rep.Results != 2 {
		t.Fatalf("replay = %d pending, %d results; want 2/2", rep.Pending, rep.Results)
	}

	var mu sync.Mutex
	var reran []uint64
	m2 := stubManager(t, Options{Workers: 2, Journal: j2},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			mu.Lock()
			reran = append(reran, spec.Seed)
			mu.Unlock()
			return sim.Result{IPC: float64(spec.Seed), Epochs: 1}, nil
		})
	if err := m2.Restore(rep); err != nil {
		t.Fatal(err)
	}
	sweeps := m2.ListSweeps()
	if len(sweeps) != 1 || sweeps[0].ID() != sw1.ID() {
		t.Fatalf("restored sweeps = %v", sweeps)
	}
	v := waitSweep(t, m2, sweeps[0])
	if v.State != StateDone || v.Done != 4 {
		t.Fatalf("resumed sweep = %+v", v)
	}
	// Exactly-once: the children that finished before the crash are
	// served from the replayed cache, only the unfinished pair runs.
	mu.Lock()
	defer mu.Unlock()
	if len(reran) != 2 {
		t.Fatalf("resume re-ran seeds %v, want exactly the 2 unfinished", reran)
	}
	for _, seed := range reran {
		if seed < 3 {
			t.Errorf("resume re-ran already-completed seed %d", seed)
		}
	}
	if v.CacheHits != 2 {
		t.Errorf("resumed sweep cache hits = %d, want 2", v.CacheHits)
	}

	// The resumed aggregate is bit-identical to an uninterrupted run.
	ref := stubManager(t, Options{Workers: 2},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			return sim.Result{IPC: float64(spec.Seed), Epochs: 1}, nil
		})
	refSw, _, err := ref.SubmitSweep(ss)
	if err != nil {
		t.Fatal(err)
	}
	refV := waitSweep(t, ref, refSw)
	if !reflect.DeepEqual(v.Stats, refV.Stats) {
		t.Errorf("resumed aggregate drifted:\nresumed   %+v\nreference %+v", v.Stats, refV.Stats)
	}
}

func TestSweepTerminalStateSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	m1, j1, _ := journalManager(t, path, Options{Workers: 2}, instantRun)
	sw, _, err := m1.SubmitSweep(sweepOf(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, m1, sw)
	shutdown(t, m1)
	j1.Close()

	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep.PendingSweeps != 0 || len(rep.Sweeps) != 1 {
		t.Fatalf("replay = %d sweeps, %d pending; want 1/0", len(rep.Sweeps), rep.PendingSweeps)
	}
	m2 := stubManager(t, Options{Workers: 1, Journal: j2},
		func(context.Context, Spec, func(int64, int64)) (sim.Result, error) {
			t.Error("terminal sweep re-ran a child after restart")
			return sim.Result{}, nil
		})
	if err := m2.Restore(rep); err != nil {
		t.Fatal(err)
	}
	sw2, ok := m2.GetSweep(sw.ID())
	if !ok {
		t.Fatal("terminal sweep lost across restart")
	}
	v := m2.snapshotSweep(sw2, true)
	if v.State != StateDone || v.Done != 2 {
		t.Fatalf("restored terminal sweep = %+v", v)
	}
	if len(m2.SweepResults(sw2)) != 2 {
		t.Error("restored terminal sweep lost its child results")
	}
}

// TestListOrderIsDeterministic is the regression for the map-iteration
// listing bug: two jobs restored with the same sequence number (two
// fleet nodes journaling independently) must list in a stable order,
// id-tie-broken, on every call.
func TestListOrderIsDeterministic(t *testing.T) {
	m := stubManager(t, Options{Workers: 1}, instantRun)
	res := sim.Result{IPC: 1}
	rep := &Replayed{Jobs: []ReplayedJob{
		{ID: "b.job-000001", Seq: 1, Spec: uniqueSpec(1), State: StateDone, Result: &res},
		{ID: "a.job-000001", Seq: 1, Spec: uniqueSpec(2), State: StateDone, Result: &res},
		{ID: "a.job-000002", Seq: 2, Spec: uniqueSpec(3), State: StateDone, Result: &res},
	}}
	if err := m.Restore(rep); err != nil {
		t.Fatal(err)
	}
	want := []string{"a.job-000001", "b.job-000001", "a.job-000002"}
	for round := 0; round < 5; round++ {
		var got []string
		for _, j := range m.List() {
			got = append(got, j.ID())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: List order = %v, want %v", round, got, want)
		}
	}
}

// TestSweepSmoke is the make sweep-smoke backing: a tiny real-engine
// sweep over HTTP, submitted twice; the second pass must be answered
// entirely from the result cache.
func TestSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations; skipped in -short")
	}
	m := NewManager(Options{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	srv := httptest.NewServer(Handler(m))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL)
	client.PollInterval = 10 * time.Millisecond

	ss := SweepSpec{
		Base: Spec{Workloads: []string{"hmmer"}, Scale: 64, Epochs: 1, Seed: 0xEC0},
		Axes: SweepAxes{Mitigations: []string{MitNone, MitRRS}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	first, err := client.RunSweep(ctx, ss)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 {
		t.Fatalf("first pass returned %d results, want 2", len(first))
	}
	for h, res := range first {
		if res.IPC <= 0 {
			t.Errorf("child %s IPC = %v", h, res.IPC)
		}
	}
	second, err := client.RunSweep(ctx, ss)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("second pass results differ from the first")
	}
	counters := m.met.JSON().Counters
	if got := counters["rrs_sweep_children_cached_total"]; got != 2 {
		t.Errorf("rrs_sweep_children_cached_total = %d, want 2 (second pass all cached)", got)
	}
	fmt.Printf("sweep-smoke: %d children, %d served from cache on resubmit\n",
		len(first), counters["rrs_sweep_children_cached_total"])
}

func TestSweepHTTPLifecycle(t *testing.T) {
	srv, m := newTestServer(t, Options{Workers: 2}, instantRun)
	client := NewClient(srv.URL)
	client.PollInterval = 2 * time.Millisecond

	ss := sweepOf(5, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := client.RunSweep(ctx, ss)
	if err != nil {
		t.Fatal(err)
	}
	specs, _ := ss.Expand()
	if len(got) != len(specs) {
		t.Fatalf("RunSweep returned %d results, want %d", len(got), len(specs))
	}
	for _, sp := range specs {
		if res, ok := got[sp.Hash()]; !ok || res.IPC != float64(sp.Seed) {
			t.Errorf("child seed %d result = (%+v, %v)", sp.Seed, res, ok)
		}
	}

	// The children are individually addressable by content hash.
	res, ok, err := client.ResultByHash(ctx, specs[0].Hash())
	if err != nil || !ok || res.IPC != float64(specs[0].Seed) {
		t.Fatalf("ResultByHash = (%+v, %v, %v)", res, ok, err)
	}
	if _, ok, err := client.ResultByHash(ctx, "deadbeef"); err != nil || ok {
		t.Fatalf("unknown hash = (ok=%v, err=%v), want miss without error", ok, err)
	}

	// The sweep shows up in the listing; DELETE retires it.
	sweeps := m.ListSweeps()
	if len(sweeps) != 1 {
		t.Fatalf("ListSweeps = %d entries, want 1", len(sweeps))
	}
	id := sweeps[0].ID()
	if v, err := client.Sweep(ctx, id); err != nil || v.State != StateDone || v.Total != len(specs) {
		t.Fatalf("Sweep(%s) = (%+v, %v)", id, v, err)
	}
	if err := client.CancelSweep(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Sweep(ctx, id); err == nil {
		t.Error("retired sweep still answers GET")
	}
}

func TestSweepHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1}, instantRun)
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantSubstr string
	}{
		{"bad json", http.MethodPost, "/v1/sweeps", `{"base":`,
			http.StatusBadRequest, "decoding sweep spec"},
		{"unknown field", http.MethodPost, "/v1/sweeps", `{"bse":{}}`,
			http.StatusBadRequest, "unknown field"},
		{"invalid child", http.MethodPost, "/v1/sweeps",
			`{"base":{"workloads":["doom"],"scale":16,"epochs":1}}`,
			http.StatusBadRequest, "unknown workload"},
		{"get missing", http.MethodGet, "/v1/sweeps/sweep-999999", "",
			http.StatusNotFound, "no such sweep"},
		{"results missing", http.MethodGet, "/v1/sweeps/sweep-999999/results", "",
			http.StatusNotFound, "no such sweep"},
		{"delete missing", http.MethodDelete, "/v1/sweeps/sweep-999999", "",
			http.StatusNotFound, "no such sweep"},
		{"result by hash missing", http.MethodGet, "/v1/results/deadbeef", "",
			http.StatusNotFound, "no result"},
		{"list", http.MethodGet, "/v1/sweeps", "", http.StatusOK, `"sweeps"`},
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
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body: %s",
					resp.StatusCode, tc.wantStatus, raw)
			}
			if !strings.Contains(string(raw), tc.wantSubstr) {
				t.Errorf("body missing %q:\n%s", tc.wantSubstr, raw)
			}
		})
	}
}

// TestSweepRoutedChildrenHoldNoWorker: children RouteChild places on
// another node wait on goroutines of their own, so a one-worker manager
// still runs the children it keeps. Cancelling the sweep ends their
// waits, and a routed child that never finished is never journaled.
func TestSweepRoutedChildrenHoldNoWorker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	waiting := make(chan struct{}, 8) // more than the sweep's 2 routed children
	m, j, _ := journalManager(t, path, Options{
		Workers: 1,
		RouteChild: func(_ context.Context, spec Spec) (func(context.Context) (sim.Result, error), error) {
			if spec.Seed%2 == 1 {
				return nil, nil // odd seeds are queued here
			}
			return func(ctx context.Context) (sim.Result, error) {
				waiting <- struct{}{}
				<-ctx.Done()
				return sim.Result{}, ctx.Err()
			}, nil
		},
	}, func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
		return sim.Result{IPC: float64(spec.Seed)}, nil
	})
	sw, _, err := m.SubmitSweep(sweepOf(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-waiting:
		case <-time.After(10 * time.Second):
			t.Fatalf("routed child %d never started waiting", i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for v := m.snapshotSweep(sw, false); v.Done < 2; v = m.snapshotSweep(sw, false) {
		if time.Now().After(deadline) {
			t.Fatalf("local children did not finish beside the routed waits: %+v", v)
		}
		time.Sleep(time.Millisecond)
	}
	if ok, err := m.CancelSweep(sw.ID()); !ok || err != nil {
		t.Fatalf("CancelSweep = (%v, %v)", ok, err)
	}
	if v := waitSweep(t, m, sw); v.State != StateCancelled || v.Done != 2 || v.Cancelled != 2 {
		t.Fatalf("cancelled sweep = %s with %d done, %d cancelled; want cancelled, 2, 2",
			v.State, v.Done, v.Cancelled)
	}

	j.Close()
	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rep.Jobs) != 2 {
		t.Fatalf("journal holds %d jobs, want only the 2 local children", len(rep.Jobs))
	}
	for _, rj := range rep.Jobs {
		if rj.Spec.Seed%2 != 1 {
			t.Errorf("routed child seed %d was journaled", rj.Spec.Seed)
		}
	}
}

// routeEven is a RouteChild hook that keeps odd seeds here and answers
// even seeds at once, as an owner that already holds the result would.
func routeEven(_ context.Context, spec Spec) (func(context.Context) (sim.Result, error), error) {
	if spec.Seed%2 == 1 {
		return nil, nil
	}
	return func(context.Context) (sim.Result, error) {
		return sim.Result{IPC: float64(spec.Seed)}, nil
	}, nil
}

// TestRoutedChildResultsSurviveRestart: a routed child that finishes
// done is journaled with its result, so after a restart a finished
// sweep still reports every child done and serves every result,
// without running anything again.
func TestRoutedChildResultsSurviveRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	engine := func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
		return sim.Result{IPC: float64(spec.Seed)}, nil
	}
	m, j, _ := journalManager(t, path, Options{Workers: 1, RouteChild: routeEven}, engine)
	sw, _, err := m.SubmitSweep(sweepOf(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if v := waitSweep(t, m, sw); v.State != StateDone {
		t.Fatalf("sweep = %s (%s), want done", v.State, v.Error)
	}
	j.Close()

	var runs atomic.Int64
	m2, _, rep := journalManager(t, path, Options{Workers: 1},
		func(ctx context.Context, spec Spec, p func(int64, int64)) (sim.Result, error) {
			runs.Add(1)
			return engine(ctx, spec, p)
		})
	if len(rep.Jobs) != 4 || rep.Pending != 0 {
		t.Fatalf("journal replays %d jobs (%d pending), want 4 done", len(rep.Jobs), rep.Pending)
	}
	if err := m2.Restore(rep); err != nil {
		t.Fatal(err)
	}
	sw2, ok := m2.GetSweep(sw.ID())
	if !ok {
		t.Fatalf("sweep %s not restored", sw.ID())
	}
	if v := m2.snapshotSweep(sw2, false); v.State != StateDone || v.Done != 4 {
		t.Fatalf("restored sweep = %s with %d/4 done, want done with all 4", v.State, v.Done)
	}
	res := m2.SweepResults(sw2)
	for _, sp := range sw2.specs {
		if r, ok := res[sp.Hash()]; !ok || r.IPC != float64(sp.Seed) {
			t.Errorf("child seed %d: IPC %v (present %v), want %d", sp.Seed, r.IPC, ok, sp.Seed)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("restart ran %d children, want 0", n)
	}
}

// TestSweepStopInterruptsChildPlacement: RouteChild runs under a
// context that CancelSweep and Shutdown end, so an owner that never
// answers a placement holds up neither.
func TestSweepStopInterruptsChildPlacement(t *testing.T) {
	placing := make(chan struct{}, 8)
	m := stubManager(t, Options{Workers: 1,
		RouteChild: func(ctx context.Context, _ Spec) (func(context.Context) (sim.Result, error), error) {
			placing <- struct{}{}
			<-ctx.Done() // an owner that hangs
			return nil, ctx.Err()
		},
	}, func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
		return sim.Result{IPC: float64(spec.Seed)}, nil
	})
	waitPlacing := func() {
		t.Helper()
		select {
		case <-placing:
		case <-time.After(10 * time.Second):
			t.Fatal("the feeder never started placing a child")
		}
	}

	sw, _, err := m.SubmitSweep(sweepOf(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitPlacing()
	if ok, err := m.CancelSweep(sw.ID()); !ok || err != nil {
		t.Fatalf("CancelSweep = (%v, %v)", ok, err)
	}
	select {
	case <-sw.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("CancelSweep did not end the placement")
	}
	if v := m.snapshotSweep(sw, false); v.State != StateCancelled || v.Linked != 0 {
		t.Fatalf("cancelled sweep = %s with %d linked, want cancelled with 0", v.State, v.Linked)
	}

	if _, _, err := m.SubmitSweep(sweepOf(3, 4)); err != nil {
		t.Fatal(err)
	}
	waitPlacing()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Shutdown waited %v on a hung placement", d)
	}
}
