package service

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestOnResultHookFiresOncePerComputation pins the replication seam's
// contract: OnResult fires for a computed result (stripped, post-cache)
// but not for cache hits or InsertCached — the paths that would make a
// replica fan back out.
func TestOnResultHookFiresOncePerComputation(t *testing.T) {
	var mu sync.Mutex
	got := make(map[string]int)
	m := stubManager(t, Options{
		Workers: 1,
		OnResult: func(hash string, res sim.Result) {
			if res.Timeline != nil || res.Mitigation != nil {
				t.Errorf("OnResult saw an unstripped result for %s", hash)
			}
			mu.Lock()
			got[hash]++
			mu.Unlock()
		},
	}, func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
		return sim.Result{IPC: float64(spec.Seed)}, nil
	})

	spec := uniqueSpec(1)
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	// Identical resubmission: a cache hit, no second OnResult.
	j2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, j2)
	if !v.CacheHit {
		t.Fatalf("resubmission was not a cache hit")
	}

	// A received replica: cached, but no OnResult either.
	m.InsertCached("replica-hash", sim.Result{IPC: 7})

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[spec.Hash()] != 1 {
		t.Fatalf("OnResult calls = %v, want exactly one for %s", got, spec.Hash())
	}
}

// TestInsertCachedStripsAndServes verifies a pushed replica is stripped
// like a local completion and answers CachedResult.
func TestInsertCachedStripsAndServes(t *testing.T) {
	m := stubManager(t, Options{Workers: 1},
		func(_ context.Context, _ Spec, _ func(int64, int64)) (sim.Result, error) {
			return sim.Result{}, nil
		})
	m.InsertCached("h1", sim.Result{IPC: 3, Timeline: &obs.Timeline{}})
	res, ok := m.CachedResult("h1")
	if !ok {
		t.Fatalf("replica not cached")
	}
	if res.Timeline != nil || res.Mitigation != nil {
		t.Fatalf("replica cached unstripped")
	}
	if res.IPC != 3 {
		t.Fatalf("IPC = %v, want 3", res.IPC)
	}
}

// TestDoneHashesAndResultByHash covers the repair loop's data source:
// computed results and received replicas, one entry per hash, sorted,
// each resolvable.
func TestDoneHashesAndResultByHash(t *testing.T) {
	m := stubManager(t, Options{Workers: 1},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	s1, s2 := uniqueSpec(1), uniqueSpec(2)
	for _, s := range []Spec{s1, s2, s1} {
		j, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	m.InsertCached("replica-only", sim.Result{IPC: 9})

	hashes := m.DoneHashes()
	want := []string{s1.Hash(), s2.Hash(), "replica-only"}
	slices.Sort(want)
	if !slices.Equal(hashes, want) {
		t.Fatalf("DoneHashes = %v, want %v", hashes, want)
	}
	for _, h := range hashes {
		if _, ok := m.CachedResult(h); !ok {
			t.Fatalf("CachedResult(%s) missed", h)
		}
	}
	if _, ok := m.CachedResult("absent"); ok {
		t.Fatalf("CachedResult invented a result")
	}
}

// TestResultByHashSurvivesCacheEviction: a done job's result stays
// reachable by hash however many results the node computes after it.
func TestResultByHashSurvivesCacheEviction(t *testing.T) {
	m := stubManager(t, Options{Workers: 1},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	for seed := uint64(1); seed <= 301; seed++ {
		j, err := m.Submit(uniqueSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	res, ok := m.CachedResult(uniqueSpec(1).Hash())
	if !ok {
		t.Fatalf("first done job unreachable by hash after 300 more")
	}
	if res.IPC != 1 {
		t.Fatalf("IPC = %v, want 1", res.IPC)
	}
}

// TestResultByHashSurvivesRemovalOfDuplicate: a cache-hit job shares
// the computing job's hash; removing both job records must leave the
// result in the store — it is still the right answer for the hash.
func TestResultByHashSurvivesRemovalOfDuplicate(t *testing.T) {
	m := stubManager(t, Options{Workers: 1},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			return sim.Result{IPC: float64(spec.Seed)}, nil
		})
	s1 := uniqueSpec(1)
	j1, err := m.Submit(s1)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	// Resubmission: a second done job with the same hash (cache hit).
	j2, err := m.Submit(s1)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, j2); !v.CacheHit {
		t.Fatalf("resubmission was not a cache hit: %+v", v)
	}
	for _, j := range []*Job{j2, j1} {
		if err := m.Remove(j.ID()); err != nil {
			t.Fatal(err)
		}
	}
	res, ok := m.CachedResult(s1.Hash())
	if !ok {
		t.Fatalf("result lost after removing its job records")
	}
	if res.IPC != 1 {
		t.Fatalf("IPC = %v, want 1", res.IPC)
	}
}
