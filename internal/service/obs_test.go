package service

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// fakeTimeline builds the histogram-only timeline a production run hands
// back: known occupancy/stall aggregates and two epoch samples.
func fakeTimeline() *obs.Timeline {
	rec := obs.NewRecorder(obs.Config{RingSize: -1})
	for _, v := range []int64{10, 10, 10} {
		rec.Observe(obs.HistAccess, v)
	}
	rec.Observe(obs.HistStall, 7)
	rec.Observe(obs.HistStall, 5)
	rec.Observe(obs.HistSwapBlock, 100)
	rec.Observe(obs.HistRITOcc, 4)
	rec.Observe(obs.HistRITOcc, 8)
	rec.Observe(obs.HistHRTOcc, 10)
	rec.Sample(obs.EpochSample{Epoch: 0, Swaps: 5})
	rec.Sample(obs.EpochSample{Epoch: 1, Swaps: 7})
	return rec.Timeline()
}

// TestFoldTimelineIntoMetrics checks that a finished run's timeline is
// folded into the registry — counters accumulate, last-run gauges are
// replaced — and that the timeline is stripped from the stored result.
func TestFoldTimelineIntoMetrics(t *testing.T) {
	m := stubManager(t, Options{Workers: 1},
		func(_ context.Context, spec Spec, _ func(int64, int64)) (sim.Result, error) {
			res := sim.Result{IPC: 1}
			if spec.Seed == 1 {
				res.Timeline = fakeTimeline()
			}
			return res, nil // seed 2 returns no timeline (fold must be nil-safe)
		})

	j, err := m.Submit(uniqueSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, j); v.State != StateDone {
		t.Fatalf("state = %s (%s)", v.State, v.Error)
	}

	res, ok := m.CachedResult(j.Hash())
	if !ok {
		t.Fatal("no result")
	}
	if res.Timeline != nil {
		t.Error("timeline leaked into the stored result; it must be folded and dropped")
	}

	view := m.Metrics().JSON()
	for name, want := range map[string]int64{
		"rrs_sim_epochs_total":            2,
		"rrs_sim_swaps_total":             12,
		"rrs_sim_accesses_total":          3,
		"rrs_sim_stall_cycles_total":      12,
		"rrs_sim_swap_block_cycles_total": 100,
	} {
		if got := view.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]float64{
		"rrs_last_run_rit_occupancy_mean": 6,
		"rrs_last_run_rit_occupancy_peak": 8,
		"rrs_last_run_hrt_occupancy_mean": 10,
		"rrs_last_run_hrt_occupancy_peak": 10,
		"rrs_last_run_stall_cycles_mean":  6,
	} {
		if got := view.Gauges[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	// A run without a timeline (the chaos-test RunFunc shape) leaves the
	// folded aggregates untouched.
	j2, err := m.Submit(uniqueSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	after := m.Metrics().JSON()
	if got := after.Counters["rrs_sim_epochs_total"]; got != 2 {
		t.Errorf("nil timeline changed rrs_sim_epochs_total to %d", got)
	}
	if got := after.Gauges["rrs_last_run_rit_occupancy_peak"]; got != 8 {
		t.Errorf("nil timeline changed last-run gauge to %v", got)
	}
}

// TestJobViewPhaseAndEpoch checks the derived progress fields: phase
// strings across the lifecycle (queued → simulating → done, plus the
// cache-hit "cached"), and epoch counts mapped from the cycle-based
// progress fraction.
func TestJobViewPhaseAndEpoch(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	m := stubManager(t, Options{Workers: 1},
		func(_ context.Context, _ Spec, progress func(int64, int64)) (sim.Result, error) {
			progress(1, 2) // half the simulated cycles done
			close(started)
			<-release
			return sim.Result{IPC: 1}, nil
		})

	spec := uniqueSpec(1)
	spec.Epochs = 4
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	v := j.Snapshot()
	if v.Phase != "simulating" {
		t.Errorf("running phase = %q, want simulating", v.Phase)
	}
	if v.TotalEpochs != 4 || v.Epoch != 2 {
		t.Errorf("mid-run epochs = %d/%d, want 2/4", v.Epoch, v.TotalEpochs)
	}

	// A second distinct spec sits behind the blocked worker: queued.
	spec2 := uniqueSpec(2)
	spec2.Epochs = 4
	j2, err := m.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if v := j2.Snapshot(); v.Phase != "queued" || v.Epoch != 0 {
		t.Errorf("queued job phase/epoch = %q/%d, want queued/0", v.Phase, v.Epoch)
	}

	close(release)
	if v := waitDone(t, j); v.Phase != "done" || v.Epoch != 4 {
		t.Errorf("done job phase/epoch = %q/%d, want done/4", v.Phase, v.Epoch)
	}
	waitDone(t, j2)

	// Resubmitting the finished spec answers from the cache.
	j3, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, j3); !v.CacheHit || v.Phase != "cached" {
		t.Errorf("cache-hit job = {hit:%v phase:%q}, want {true cached}", v.CacheHit, v.Phase)
	}
}
