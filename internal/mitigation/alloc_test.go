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

// TestSRSSwapAllocBytes pins the permutation's page size at Table 2
// geometry: the six swaps of one hammered row group materialize a few
// small pages of each map, under 16 KiB in all (pages of 1024 rows made
// them allocate 57 KiB).
func TestSRSSwapAllocBytes(t *testing.T) {
	cfg := config.Default()
	sys := dram.MustNew(cfg)
	p := DefaultSRSParams(cfg)
	p.SwapThreshold = 8
	s := NewSRS(sys, p)
	id := dram.BankID{}
	n := allocBytes(func() {
		for i := 0; i < 64; i++ {
			s.OnActivate(id, 100+i%3, s.Remap(id, 100+i%3), int64(i*72))
		}
	})
	if got := s.Stats().Swaps; got != 6 {
		t.Fatalf("%d swaps, want 6", got)
	}
	if n >= 16<<10 {
		t.Fatalf("six SRS swaps allocated %d bytes, want < 16 KiB", n)
	}
}

// TestNewRubixAllocBytes pins Rubix's construction at Table 2 geometry to
// its forward maps (one int32 per row per bank, 16 MiB) plus under 64 KiB:
// no bank's inverse is built until Occupant asks for it.
func TestNewRubixAllocBytes(t *testing.T) {
	cfg := config.Default()
	sys := dram.MustNew(cfg)
	var r *Rubix
	total := allocBytes(func() { r = NewRubix(sys, 0, 11) })
	slabs := uint64(len(r.perm)) * uint64(cfg.RowsPerBank) * 4
	if total < slabs || total-slabs >= 64<<10 {
		t.Fatalf("NewRubix allocated %d bytes, want its %d bytes of perm slabs + < 64 KiB", total, slabs)
	}
	for b, inv := range r.inv {
		if inv != nil {
			t.Fatalf("bank %d has an inverse map before any Occupant call", b)
		}
	}
}
