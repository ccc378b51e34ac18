package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tinyScale keeps runner tests to a fraction of a second: 1/256 epochs
// on one small workload.
func tinyScale() Scale {
	w, _ := trace.ByName("bzip2")
	return Scale{Factor: 256, Epochs: 1, Seed: 3, Workloads: []trace.Workload{w}}
}

// testManager starts a manager with the given options, shut down with
// the test.
func testManager(t *testing.T, opts service.Options) *service.Manager {
	t.Helper()
	m := service.NewManager(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

// managerSweeper backs Scale.Sweeper with m, counting the sweeps.
func managerSweeper(m *service.Manager, sweeps *atomic.Int64) func(service.SweepSpec) (map[string]sim.Result, error) {
	return func(ss service.SweepSpec) (map[string]sim.Result, error) {
		sweeps.Add(1)
		return m.RunSweep(context.Background(), ss)
	}
}

// TestSpecPathMatchesLocalRun checks that a sweep point, run through the
// default in-process sweep, reproduces the direct sim.Options run
// bit-for-bit — the reference that ties the one execution path to the
// engine.
func TestSpecPathMatchesLocalRun(t *testing.T) {
	s := tinyScale()
	w := s.Workloads[0]

	g, err := s.sweep(s.spec(service.MitRRS, 0), service.SweepAxes{Workloads: []string{w.Name}})
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := g.at(s.spec(service.MitRRS, 0, w))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := s.spec(service.MitNone, 0, w).Options()
	if err != nil {
		t.Fatal(err)
	}
	opts.Mitigation = func(sys *dram.System) memctrl.Mitigation {
		r, err := core.New(sys, core.ScaledParams(sys.Config()))
		if err != nil {
			panic(err)
		}
		return r
	}
	direct, err := sim.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if viaSpec.IPC != direct.IPC || viaSpec.Instructions != direct.Instructions ||
		viaSpec.Accesses != direct.Accesses || viaSpec.Cycles != direct.Cycles ||
		viaSpec.SwapsPerEpoch != direct.SwapsPerEpoch {
		t.Errorf("spec path diverges from direct run:\nspec:   %+v\ndirect: %+v",
			viaSpec, direct)
	}
}

// TestExperimentsShareOneManager runs Figure 6 and then Table 3 on one
// manager: Table 3's baselines are a subset of Figure 6's grid, so the
// second experiment is answered from the result store and starts no
// simulation.
func TestExperimentsShareOneManager(t *testing.T) {
	var runs atomic.Int64
	m := testManager(t, service.Options{Workers: 2,
		Run: func(ctx context.Context, spec service.Spec, progress func(done, total int64)) (sim.Result, error) {
			runs.Add(1)
			return service.RunSpec(ctx, spec, progress)
		}})
	s := tinyScale()
	w, _ := trace.ByName("hmmer")
	s.Workloads = append(s.Workloads, w)
	var sweeps atomic.Int64
	s.Sweeper = managerSweeper(m, &sweeps)

	if _, _, err := Figure6(s); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 4 {
		t.Fatalf("Figure 6 started %d runs, want 4 (baseline + RRS per workload)", got)
	}
	rows, _, err := Table3(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 4 {
		t.Errorf("Table 3 started %d runs after Figure 6, want 0", got-4)
	}
	if len(rows) != 2 || rows[0].MeasuredMPKI <= 0 {
		t.Errorf("Table 3 rows = %+v", rows)
	}
	if got := sweeps.Load(); got != 2 {
		t.Errorf("%d sweeps, want one per experiment", got)
	}
}

// TestSweepErrorNamesFailingChild pins the error contract: every child
// whose run failed is named by workload and mitigation, and no
// successful point is blamed.
func TestSweepErrorNamesFailingChild(t *testing.T) {
	boom := errors.New("boom")
	m := testManager(t, service.Options{Workers: 2,
		Run: func(_ context.Context, spec service.Spec, _ func(done, total int64)) (sim.Result, error) {
			if w := spec.Workloads[0]; spec.Mitigation == service.MitRRS && w != "hmmer" {
				return sim.Result{}, boom
			}
			return sim.Result{IPC: 1}, nil
		}})
	s := tinyScale()
	s.Workloads = nil
	for _, name := range []string{"bzip2", "hmmer", "mcf"} {
		w, _ := trace.ByName(name)
		s.Workloads = append(s.Workloads, w)
	}
	var sweeps atomic.Int64
	s.Sweeper = managerSweeper(m, &sweeps)

	_, _, err := Figure6(s)
	if err == nil {
		t.Fatal("want an error for the failed children")
	}
	for _, want := range []string{"workload bzip2, mitigation rrs", "workload mcf, mitigation rrs", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	for _, blamed := range []string{"workload hmmer", "mitigation none"} {
		if strings.Contains(err.Error(), blamed) {
			t.Errorf("error %q blames a successful point (%q)", err, blamed)
		}
	}
}
