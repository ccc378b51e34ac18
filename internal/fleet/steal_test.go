package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// gatedFleet builds a 2-node fleet where n1's engine blocks on gate
// (so its queue backs up) and n2's runs instantly.
func gatedFleet(t *testing.T, gate chan struct{}, mod func(i int, o *Options)) []*tfNode {
	t.Helper()
	return startFleet(t, 2, func(i int, o *Options) {
		if i == 0 {
			o.Service.Run = func(ctx context.Context, spec service.Spec, _ func(int64, int64)) (sim.Result, error) {
				select {
				case <-gate:
				case <-ctx.Done():
					return sim.Result{}, ctx.Err()
				}
				return sim.Result{IPC: float64(spec.Seed)}, nil
			}
		}
		if mod != nil {
			mod(i, o)
		}
	})
}

func TestStealRunsRemotelyAndDonatesBack(t *testing.T) {
	gate := make(chan struct{})
	nodes := gatedFleet(t, gate, nil)
	defer close(gate)
	victim, thief := nodes[0], nodes[1]
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Back n1 up: 1 running (blocked on the gate) + 2 queued, which
	// clears the steal threshold of 2.
	c := localClient(victim)
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		v, err := c.Submit(ctx, uniqueSpec(seed))
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		ids = append(ids, v.ID)
	}
	waitFor(t, func() bool {
		backlog, busy, _ := victim.node.mgr.Load()
		return busy == 1 && backlog == 2
	})

	// One steal round on the idle n2: it should borrow n1's oldest
	// queued job (the seed-2 submission), run it, and donate.
	if !thief.node.StealOnce(ctx) {
		t.Fatalf("StealOnce found no work")
	}

	// The stolen job completes on its home node with the thief's result
	// while the gate still blocks n1's own worker.
	j, ok := victim.node.mgr.Get(ids[1])
	if !ok {
		t.Fatalf("stolen job %s vanished from victim", ids[1])
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("stolen job never completed")
	}
	if v := j.Snapshot(); v.State != service.StateDone {
		t.Fatalf("stolen job state = %s (%s), want done", v.State, v.Error)
	}
	res, _ := victim.node.mgr.CachedResult(j.Hash())
	if res.IPC != 2 {
		t.Fatalf("stolen job IPC = %v, want 2", res.IPC)
	}
	if thief.runs.Load() != 1 {
		t.Fatalf("thief ran %d jobs, want 1", thief.runs.Load())
	}
	if counter(victim, "rrs_fleet_lent_total") != 1 ||
		counter(victim, "rrs_fleet_donations_accepted_total") != 1 {
		t.Fatalf("victim counters: lent=%d accepted=%d, want 1/1",
			counter(victim, "rrs_fleet_lent_total"),
			counter(victim, "rrs_fleet_donations_accepted_total"))
	}
	if counter(thief, "rrs_fleet_steals_total") != 1 {
		t.Fatalf("thief steals = %d, want 1", counter(thief, "rrs_fleet_steals_total"))
	}
}

func TestStealRespectsIdlenessAndThreshold(t *testing.T) {
	gate := make(chan struct{})
	nodes := gatedFleet(t, gate, nil)
	defer close(gate)
	victim, thief := nodes[0], nodes[1]
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Only 1 queued job on the victim: below the threshold of 2,
	// nothing is lent.
	c := localClient(victim)
	for seed := uint64(10); seed <= 11; seed++ {
		if _, err := c.Submit(ctx, uniqueSpec(seed)); err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
	}
	waitFor(t, func() bool {
		backlog, busy, _ := victim.node.mgr.Load()
		return busy == 1 && backlog == 1
	})
	if thief.node.StealOnce(ctx) {
		t.Fatalf("stole below the victim's threshold")
	}

	// A draining thief must not steal either.
	if _, err := c.Submit(ctx, uniqueSpec(12)); err != nil {
		t.Fatalf("submit 12: %v", err)
	}
	waitFor(t, func() bool { backlog, _, _ := victim.node.mgr.Load(); return backlog == 2 })
	thief.node.StartDrain()
	if thief.node.StealOnce(ctx) {
		t.Fatalf("draining thief stole work")
	}
}

func TestStealLeaseReclaimAndStaleDonation(t *testing.T) {
	gate := make(chan struct{})
	nodes := gatedFleet(t, gate, func(i int, o *Options) {
		o.LeaseTimeout = time.Millisecond
	})
	victim := nodes[0]
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	c := localClient(victim)
	var ids []string
	for seed := uint64(20); seed <= 22; seed++ {
		v, err := c.Submit(ctx, uniqueSpec(seed))
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		ids = append(ids, v.ID)
	}
	waitFor(t, func() bool {
		backlog, busy, _ := victim.node.mgr.Load()
		return busy == 1 && backlog == 2
	})

	// Steal by hand as a thief that will never donate in time.
	grant := postSteal(t, victim, "ghost")
	if grant.ID != ids[1] {
		t.Fatalf("lent %s, want oldest queued %s", grant.ID, ids[1])
	}

	// The lease expires and the reaper hands the job back to the local
	// queue.
	time.Sleep(5 * time.Millisecond)
	victim.node.reapLeases()
	if counter(victim, "rrs_fleet_reclaims_total") != 1 {
		t.Fatalf("reclaims = %d, want 1", counter(victim, "rrs_fleet_reclaims_total"))
	}

	// A donation arriving after the reclaim is stale: dropped, not
	// double-completing the job.
	reply := postDonation(t, victim, donation{ID: grant.ID, OK: true,
		Result: sim.Result{IPC: 999}})
	if reply.Accepted {
		t.Fatalf("stale donation accepted")
	}
	if counter(victim, "rrs_fleet_donations_stale_total") != 1 {
		t.Fatalf("stale donations = %d, want 1",
			counter(victim, "rrs_fleet_donations_stale_total"))
	}

	// With the gate open the reclaimed job runs locally — with its own
	// deterministic result, not the stale donation's.
	close(gate)
	j, ok := victim.node.mgr.Get(grant.ID)
	if !ok {
		t.Fatalf("reclaimed job vanished")
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("reclaimed job never ran")
	}
	res, _ := victim.node.mgr.CachedResult(j.Hash())
	if res.IPC != 21 {
		t.Fatalf("reclaimed job IPC = %v, want 21 (local run, not the stale 999)", res.IPC)
	}
}

func postSteal(t *testing.T, n *tfNode, thief string) stealGrant {
	t.Helper()
	body, _ := json.Marshal(stealRequest{Thief: thief})
	resp, err := http.Post(n.srv.URL+"/v1/fleet/steal", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatalf("steal: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("steal status = %d, want 200", resp.StatusCode)
	}
	var g stealGrant
	if err := json.NewDecoder(resp.Body).Decode(&g); err != nil {
		t.Fatalf("decoding grant: %v", err)
	}
	return g
}

func postDonation(t *testing.T, n *tfNode, d donation) donationReply {
	t.Helper()
	body, _ := json.Marshal(d)
	resp, err := http.Post(n.srv.URL+"/v1/fleet/donate", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatalf("donate: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("donate status = %d, want 200", resp.StatusCode)
	}
	var rep donationReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decoding reply: %v", err)
	}
	return rep
}
