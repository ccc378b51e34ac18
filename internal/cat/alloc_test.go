package cat

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestLookupAllocFree pins the hot-path contract: Lookup (hit and miss)
// performs no allocations.
func TestLookupAllocFree(t *testing.T) {
	tab := New[int64](Spec{Sets: 64, Ways: 20}, 5)
	for i := uint64(0); i < 1700; i++ {
		if tab.Install(i, int64(i)) == nil {
			t.Fatalf("install %d failed", i)
		}
	}
	var sink int64
	if avg := testing.AllocsPerRun(500, func() {
		if p := tab.Lookup(7); p != nil {
			sink += *p
		}
		if p := tab.Lookup(900_000); p != nil {
			sink += *p
		}
	}); avg != 0 {
		t.Fatalf("Lookup allocates %.2f allocs/run, want 0 (sink %d)", avg, sink)
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

// TestNewAllocBytes pins New at the tracker's and the RIT's paper
// geometries to its slots, the per-set masks and counters, and a fixed
// header (the table and its two keyed hashes): no memo or other per-key
// structure is built up front.
func TestNewAllocBytes(t *testing.T) {
	for _, spec := range []Spec{{Sets: 64, Ways: 20}, {Sets: 256, Ways: 20}} {
		var tab *Table[int64]
		n := allocBytes(func() { tab = New[int64](spec, 3) })
		slots := uint64(spec.Slots()) * uint64(unsafe.Sizeof(slot[int64]{}))
		sets := uint64(2*spec.Sets) * uint64(unsafe.Sizeof(setState{}))
		if n < slots+sets || n-slots-sets >= 1<<10 {
			t.Fatalf("%+v: New allocated %d bytes, want %d of slots + %d of masks and counters + < 1 KiB",
				spec, n, slots, sets)
		}
		if tab.Lookup(12345) != nil {
			t.Fatal("fresh table holds a key")
		}
	}
}
