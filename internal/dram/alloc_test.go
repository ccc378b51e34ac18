package dram

import (
	"runtime"
	"testing"

	"repro/internal/config"
)

// TestHotPathAllocFree pins the flat-storage contract: per-access DRAM
// operations (activate, plus content reads and rewrites of rows already
// written) perform no allocations in steady state. The warm-up pass
// fills the dirty list and the content map and runs past one full
// activation log, so the measured runs, which fold the log several
// times, see the steady state. AllocsPerRun averages down to an integer
// and would round away the dozen growths of a log grown by appending,
// so the log's full capacity from construction is pinned directly.
func TestHotPathAllocFree(t *testing.T) {
	s := MustNew(testConfig())
	id := BankID{}
	for r := 0; r < 1<<10; r++ {
		s.SetRowContent(id, r, uint64(r))
	}
	if c := cap(s.BankState(id).log); c != actLogSize {
		t.Fatalf("activation log capacity %d, want %d from construction", c, actLogSize)
	}
	for i := 0; i <= actLogSize; i++ {
		s.Activate(id, i%(1<<10), int64(i))
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

// TestNewAllocBytes pins construction at Table 2 geometry: the system
// allocates its activation logs and the log-count tally, not a count per
// row for each of its 32 banks of 128 Ki rows, which a bank gets only
// when its log fills.
func TestNewAllocBytes(t *testing.T) {
	if n := allocBytes(func() { MustNew(config.Default()) }); n >= 1<<20 {
		t.Fatalf("New allocated %d bytes, want < 1 MiB", n)
	}
}
