package cat

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestLookupAllocFree pins the hot-path contract: Lookup (hit and miss,
// through the set-index memo) performs no allocations.
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

// TestNewAllocBytes pins the lazy set-index memo at the paper's RIT
// geometry: New allocates the slot arrays and little else, and the
// 128 KiB memo appears only at the first lookup that must hash.
func TestNewAllocBytes(t *testing.T) {
	spec := Spec{Sets: 256, Ways: 20}
	var tab *Table[int64]
	n := allocBytes(func() { tab = New[int64](spec, 3) })
	slots := uint64(spec.Slots()) * uint64(unsafe.Sizeof(slot[int64]{}))
	if n-slots >= 16<<10 {
		t.Fatalf("New allocated %d bytes beyond its %d bytes of slots, want < 16 KiB", n-slots, slots)
	}
	if tab.Lookup(12345) != nil || tab.idxCache != nil {
		t.Fatal("a miss answered by the presence bitset allocated the memo")
	}
	tab.Install(12345, 1)
	if tab.idxCache == nil {
		t.Fatal("install did not populate the memo")
	}
}
