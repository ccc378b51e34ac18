package mitigation

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/tracker"
)

// TestZooHotPathAllocFree pins the 0 allocs/op contract for the zoo
// defenses' per-activation paths (the same discipline make alloc-check
// enforces for the tracker and DRAM packages). The loops cross tREFI
// windows, so the pins cover the refresh/service paths too — refreshPair
// is non-variadic and the PrIDE ring is a fixed array precisely so these
// hold.
func TestZooHotPathAllocFree(t *testing.T) {
	cfg := testConfig()
	id := dram.BankID{}

	t.Run("MINT", func(t *testing.T) {
		sys := dram.MustNew(cfg)
		m := NewMINT(sys, 1)
		now := int64(0)
		step := int64(cfg.TRC)
		// Warm-up: materialize DRAM's dense per-bank state.
		for i := 0; i < 400; i++ {
			m.OnActivate(id, 100+i%8, 100+i%8, now)
			now += step
		}
		if avg := testing.AllocsPerRun(2000, func() {
			m.OnActivate(id, 100, 100, now)
			now += step
		}); avg != 0 {
			t.Fatalf("MINT.OnActivate allocates %.2f allocs/op, want 0", avg)
		}
	})

	t.Run("PrIDE", func(t *testing.T) {
		sys := dram.MustNew(cfg)
		q := NewPrIDE(sys, 1.0, 1) // p=1: every op exercises the queue
		now := int64(0)
		step := int64(cfg.TRC)
		for i := 0; i < 400; i++ {
			q.OnActivate(id, 100+i%8, 100+i%8, now)
			now += step
		}
		if avg := testing.AllocsPerRun(2000, func() {
			q.OnActivate(id, 100, 100, now)
			now += step
		}); avg != 0 {
			t.Fatalf("PrIDE.OnActivate allocates %.2f allocs/op, want 0", avg)
		}
	})

	t.Run("DAPPER", func(t *testing.T) {
		sys := dram.MustNew(cfg)
		d := NewDAPPER(sys, 1.0, 1)
		now := int64(0)
		step := int64(cfg.TRC)
		for i := 0; i < 400; i++ {
			d.OnActivate(id, 100+i%8, 100+i%8, now)
			now += step
		}
		if avg := testing.AllocsPerRun(2000, func() {
			d.OnActivate(id, 100, 100, now)
			now += step
		}); avg != 0 {
			t.Fatalf("DAPPER.OnActivate allocates %.2f allocs/op, want 0", avg)
		}
	})
}

// allocBytes returns the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNewSRSAllocBytes pins the lazy permutation at Table 2 geometry:
// beyond its slot trackers (about 66 KiB of CAM per bank at paper
// sizing), a fresh SRS holds only page tables for its identity
// permutations, not two row-indexed arrays per bank (32 MiB over 32
// banks of 128 Ki rows).
func TestNewSRSAllocBytes(t *testing.T) {
	cfg := config.Default()
	sys := dram.MustNew(cfg)
	var s *SRS
	total := allocBytes(func() { s = NewSRS(sys, DefaultSRSParams(cfg)) })
	cams := make([]*tracker.CAM, len(s.units))
	trackers := allocBytes(func() {
		for i := range cams {
			cams[i], _ = tracker.NewCAM(s.params.TrackerEntries, s.params.SwapThreshold)
		}
	})
	if n := total - trackers; n >= 1<<20 {
		t.Fatalf("NewSRS allocated %d bytes beyond its %d bytes of trackers, want < 1 MiB", n, trackers)
	}
}
