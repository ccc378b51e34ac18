package dram

import (
	"runtime"
	"testing"

	"repro/internal/config"
)

// TestHotPathAllocFree pins the flat-storage contract: per-access DRAM
// operations (activate, plus content reads and rewrites of rows already
// written) perform no allocations in steady state. The warm-up pass
// fills the dirty list and the content map; afterwards the access path
// must never touch the heap.
func TestHotPathAllocFree(t *testing.T) {
	s := MustNew(testConfig())
	id := BankID{}
	for r := 0; r < 1<<10; r++ {
		s.SetRowContent(id, r, uint64(r))
		s.Activate(id, r, int64(r))
	}
	var sink uint64
	if avg := testing.AllocsPerRun(200, func() {
		for r := 0; r < 64; r++ {
			s.Activate(id, r, 2000)
			sink += s.RowContent(id, r)
			s.SetRowContent(id, r, sink)
		}
	}); avg != 0 {
		t.Fatalf("DRAM access path allocates %.2f allocs/run, want 0", avg)
	}
}

// allocBytes returns the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFirstSwapAllocBytes pins the sparse content store at Table 2
// geometry: the first swap on a bank allocates room for the two rows it
// writes, not a row-indexed array over the bank's 128 Ki rows.
func TestFirstSwapAllocBytes(t *testing.T) {
	s := MustNew(config.Default())
	id := BankID{Channel: 1, Bank: 3}
	if n := allocBytes(func() { s.SwapRows(id, 7, 90_000, 0) }); n >= 4<<10 {
		t.Fatalf("first SwapRows allocated %d bytes, want < 4 KiB", n)
	}
}
