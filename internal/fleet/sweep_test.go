package fleet

import (
	"context"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// TestSweepChildrenSpreadAcrossFleetExactlyOnce submits one sweep to a
// single node and checks the tentpole's fleet story: the parent lives on
// the accepting node, but each expanded child routes to its ring owner
// by its own content hash, runs exactly once fleet-wide, and a
// resubmitted sweep is answered from cache without any node re-running
// anything.
func TestSweepChildrenSpreadAcrossFleetExactlyOnce(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	client := fleetClient(nodes[0])
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ss := service.SweepSpec{Base: uniqueSpec(0)}
	const children = 12
	for seed := uint64(1); seed <= children; seed++ {
		ss.Axes.Seeds = append(ss.Axes.Seeds, seed)
	}
	got, err := client.RunSweep(ctx, ss)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := ss.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("sweep returned %d results, want %d", len(got), len(specs))
	}
	for _, sp := range specs {
		if res, ok := got[sp.Hash()]; !ok || res.IPC != float64(sp.Seed) {
			t.Errorf("child seed %d = (%+v, %v)", sp.Seed, res, ok)
		}
	}

	// Exactly once fleet-wide, and actually spread: with 12 hashes HRW-
	// ranked over 3 nodes, more than one node must own children.
	var total int64
	busy := 0
	for _, n := range nodes {
		runs := n.runs.Load()
		total += runs
		if runs > 0 {
			busy++
		}
	}
	if total != children {
		t.Errorf("fleet ran %d child jobs, want exactly %d", total, children)
	}
	if busy < 2 {
		t.Errorf("only %d node(s) ran children; ring routing did not spread the sweep", busy)
	}
	counters := nodes[0].node.Manager().Metrics().JSON().Counters
	routed := counters["rrs_fleet_sweep_children_routed_total"]
	local := counters["rrs_fleet_sweep_children_local_total"]
	if routed+local != children {
		t.Errorf("routed %d + local %d != %d children", routed, local, children)
	}
	if routed == 0 {
		t.Error("no children were routed to peer owners")
	}

	// Every child's result is addressable by hash from any node (peer
	// cache fan-out), even one that never ran it.
	other := fleetClient(nodes[2])
	if res, ok, err := other.ResultByHash(ctx, specs[0].Hash()); err != nil || !ok ||
		res.IPC != float64(specs[0].Seed) {
		t.Errorf("fleet-wide hash lookup = (%+v, %v, %v)", res, ok, err)
	}

	// Resubmission: the accepting node holds every child result (routed
	// children completed their local job records), so the second pass is
	// pure cache — no node runs anything new.
	got2, err := client.RunSweep(ctx, ss)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(specs) {
		t.Fatalf("resubmitted sweep returned %d results, want %d", len(got2), len(specs))
	}
	var total2 int64
	for _, n := range nodes {
		total2 += n.runs.Load()
	}
	if total2 != total {
		t.Errorf("resubmission ran %d extra child jobs, want 0", total2-total)
	}
	counters = nodes[0].node.Manager().Metrics().JSON().Counters
	if cached := counters["rrs_sweep_children_cached_total"]; cached != children {
		t.Errorf("rrs_sweep_children_cached_total = %d, want %d", cached, children)
	}
}

// seedSweep is a sweep over the given trace seeds of uniqueSpec.
func seedSweep(seeds ...uint64) service.SweepSpec {
	return service.SweepSpec{Base: uniqueSpec(0), Axes: service.SweepAxes{Seeds: seeds}}
}

// TestSweepChildrenRunConcurrentlyAcrossOwners checks that a routed
// child holds none of the parent's workers: with one worker per node
// and engines that block until released, a single sweep must have
// children running on at least two nodes at the same time.
func TestSweepChildrenRunConcurrentlyAcrossOwners(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	defer open()
	started := make(chan int, 64) // more than the sweep's 12 children: no engine blocks on the send
	nodes := startFleet(t, 3, func(i int, o *Options) {
		o.Service.Run = func(ctx context.Context, spec service.Spec, _ func(int64, int64)) (sim.Result, error) {
			started <- i
			select {
			case <-gate:
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			}
			return sim.Result{IPC: float64(spec.Seed)}, nil
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ss := seedSweep(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	type outcome struct {
		res map[string]sim.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := fleetClient(nodes[0]).RunSweep(ctx, ss)
		done <- outcome{res, err}
	}()

	// Every started engine is still blocked on the gate, so two distinct
	// nodes in started means two nodes running children at once.
	running := map[int]bool{}
	deadline := time.After(10 * time.Second)
	for len(running) < 2 {
		select {
		case i := <-started:
			running[i] = true
		case <-deadline:
			t.Fatalf("children ran on %d node(s) at once, want at least 2", len(running))
		}
	}
	open()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.res) != 12 {
		t.Fatalf("sweep returned %d results, want 12", len(out.res))
	}
}

// TestSweepWaitsOutFullOwnerQueue gives every child of a sweep to one
// owner whose queue holds a single job: its 429s must hold the feeder
// back, never move a child to another node, so each child runs exactly
// once, on the owner.
func TestSweepWaitsOutFullOwnerQueue(t *testing.T) {
	const owner = 1
	nodes := startFleet(t, 3, func(i int, o *Options) {
		if i != owner {
			return
		}
		o.Service.QueueDepth = 1
		inner := o.Service.Run
		o.Service.Run = func(ctx context.Context, spec service.Spec, p func(int64, int64)) (sim.Result, error) {
			time.Sleep(20 * time.Millisecond)
			return inner(ctx, spec, p)
		}
	})
	var seeds []uint64
	for seed := uint64(1); len(seeds) < 6; seed++ {
		seed = specOwnedBy(t, nodes, owner, seed).Seed
		seeds = append(seeds, seed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := fleetClient(nodes[0]).RunSweep(ctx, seedSweep(seeds...))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(seeds) {
		t.Fatalf("sweep returned %d results, want %d", len(got), len(seeds))
	}
	for i, n := range nodes {
		want := int64(0)
		if i == owner {
			want = int64(len(seeds))
		}
		if runs := n.runs.Load(); runs != want {
			t.Errorf("node %d ran %d children, want %d", i, runs, want)
		}
	}
	if rejected := counter(nodes[owner], "rrs_jobs_rejected_total"); rejected == 0 {
		t.Error("the owner never refused a child; the test did not fill its queue")
	}
	if local := counter(nodes[0], "rrs_fleet_sweep_children_local_total"); local != 0 {
		t.Errorf("rrs_fleet_sweep_children_local_total = %d, want 0", local)
	}
	// A refused placement is neither a submission nor a cache miss, on
	// either side.
	for _, name := range []string{"rrs_jobs_submitted_total", "rrs_cache_misses_total"} {
		for _, i := range []int{0, owner} {
			if got := counter(nodes[i], name); got != int64(len(seeds)) {
				t.Errorf("node %d %s = %d, want %d", i, name, got, len(seeds))
			}
		}
	}
}

// TestSweepResumedFromJournalRoutesChildrenToOwners crashes a sweep's
// parent while every child is still unfinished and restarts it from its
// journal: the resumed sweep must send each child to its ring owner, and
// each child must complete exactly once fleet-wide.
func TestSweepResumedFromJournalRoutesChildrenToOwners(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	defer open()
	var mu sync.Mutex
	ranOn := map[uint64][]int{} // seed → nodes that completed it
	engine := func(i int) service.RunFunc {
		return func(ctx context.Context, spec service.Spec, _ func(int64, int64)) (sim.Result, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			}
			mu.Lock()
			ranOn[spec.Seed] = append(ranOn[spec.Seed], i)
			mu.Unlock()
			return sim.Result{IPC: float64(spec.Seed)}, nil
		}
	}
	path := filepath.Join(t.TempDir(), "n1.journal")
	j1, _, err := service.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var opts0 Options
	nodes := startFleet(t, 3, func(i int, o *Options) {
		o.Service.Run = engine(i)
		if i == 0 {
			o.Service.Journal = j1
			opts0 = *o
		}
	})
	ss := seedSweep(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	sw, _, err := nodes[0].node.Manager().SubmitSweep(ss)
	if err != nil {
		t.Fatal(err)
	}
	parent := fleetClient(nodes[0])
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	waitFor(t, func() bool {
		v, err := parent.Sweep(ctx, sw.ID())
		return err == nil && v.Linked == v.Total
	})

	// kill -9 the parent: its journal stops first, so nothing the dying
	// manager cancels on its way down is recorded.
	j1.Close()
	nodes[0].node.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	nodes[0].node.Manager().Shutdown(sctx)
	scancel()

	j2, rep, err := service.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	opts0.Service.Journal = j2
	restarted, err := New(opts0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		restarted.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		restarted.Manager().Shutdown(ctx)
	})
	if err := restarted.Manager().Restore(rep); err != nil {
		t.Fatal(err)
	}
	nodes[0].swap.Store(restarted.Handler())
	resumed, ok := restarted.Manager().GetSweep(sw.ID())
	if !ok {
		t.Fatalf("sweep %s not restored", sw.ID())
	}
	waitFor(t, func() bool {
		v, err := parent.Sweep(ctx, sw.ID())
		return err == nil && v.Linked == v.Total
	})
	open()
	select {
	case <-resumed.Done():
	case <-ctx.Done():
		t.Fatal("resumed sweep never finished")
	}
	if got := restarted.Manager().SweepResults(resumed); len(got) != 12 {
		t.Fatalf("resumed sweep holds %d results, want 12", len(got))
	}
	specs, err := ss.Expand()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, sp := range specs {
		want := ownerIndex(t, nodes, sp)
		if got := ranOn[sp.Seed]; len(got) != 1 || got[0] != want {
			t.Errorf("child seed %d completed on nodes %v, want once on node %d", sp.Seed, got, want)
		}
	}
}

// TestSweepFinishesWhenOwnerDiesUnderFullParentQueue: the parent's own
// children keep its small queue full when the owner of the routed
// children dies. Those children fall back to the parent's queue and
// must wait for room there rather than fail, so the sweep finishes done
// with every child run on the parent.
func TestSweepFinishesWhenOwnerDiesUnderFullParentQueue(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	defer open()
	dead := make(chan struct{})
	defer close(dead)
	nodes := startFleet(t, 2, func(i int, o *Options) {
		inner := o.Service.Run
		o.Service.Run = func(ctx context.Context, spec service.Spec, p func(int64, int64)) (sim.Result, error) {
			if i == 1 { // the owner never finishes a child
				select {
				case <-dead:
				case <-ctx.Done():
				}
				return sim.Result{}, context.Canceled
			}
			select {
			case <-gate:
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			}
			return inner(ctx, spec, p)
		}
		if i == 0 {
			o.Service.QueueDepth = 2
		}
	})
	// Three children for the owner, then six for the parent: one runs,
	// two fill its queue, and the feeder waits on the other three.
	var seeds []uint64
	next := uint64(1)
	for _, owner := range []int{1, 1, 1, 0, 0, 0, 0, 0, 0} {
		seed := specOwnedBy(t, nodes, owner, next).Seed
		seeds = append(seeds, seed)
		next = seed + 1
	}
	sw, _, err := nodes[0].node.Manager().SubmitSweep(seedSweep(seeds...))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return counter(nodes[0], "rrs_fleet_sweep_children_routed_total") == 3 &&
			counter(nodes[0], "rrs_jobs_rejected_total") > 0
	})

	// The owner dies: every request to it is cut off unanswered.
	nodes[1].swap.Store(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	waitFor(t, func() bool {
		return counter(nodes[0], "rrs_fleet_sweep_children_local_total") >= 3
	})
	time.Sleep(50 * time.Millisecond) // the fallbacks meet the full queue
	open()

	select {
	case <-sw.Done():
	case <-time.After(20 * time.Second):
		t.Fatal("sweep never finished")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := fleetClient(nodes[0]).Sweep(ctx, sw.ID())
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.StateDone || v.Done != len(seeds) {
		t.Fatalf("sweep = %s with %d/%d done (%s), want done", v.State, v.Done, len(seeds), v.Error)
	}
	if runs := nodes[0].runs.Load(); runs != int64(len(seeds)) {
		t.Errorf("parent ran %d children, want %d", runs, len(seeds))
	}
}

// TestFleetSweepResultsSurviveParentRestart restarts the parent of a
// finished fleet sweep from its journal alone: the routed children's
// results come back with it, so the sweep reports every child done and
// serves every result.
func TestFleetSweepResultsSurviveParentRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "n1.journal")
	j1, _, err := service.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	nodes := startFleet(t, 3, func(i int, o *Options) {
		if i == 0 {
			o.Service.Journal = j1
		}
	})
	ss := seedSweep(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := fleetClient(nodes[0]).RunSweep(ctx, ss); err != nil {
		t.Fatal(err)
	}
	if routed := counter(nodes[0], "rrs_fleet_sweep_children_routed_total"); routed == 0 {
		t.Fatal("no child was routed; the test checks nothing")
	}
	j1.Close()

	j2, rep, err := service.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	m := service.NewManager(service.Options{Workers: 1, Journal: j2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	if err := m.Restore(rep); err != nil {
		t.Fatal(err)
	}
	sws := m.ListSweeps()
	if len(sws) != 1 {
		t.Fatalf("restored %d sweeps, want 1", len(sws))
	}
	specs, err := ss.Expand()
	if err != nil {
		t.Fatal(err)
	}
	got := m.SweepResults(sws[0])
	for _, sp := range specs {
		if res, ok := got[sp.Hash()]; !ok || res.IPC != float64(sp.Seed) {
			t.Errorf("child seed %d: IPC %v (present %v) after restart, want %d", sp.Seed, res.IPC, ok, sp.Seed)
		}
	}
}
