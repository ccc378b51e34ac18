package cat

import (
	"runtime"
	"testing"

	"repro/internal/config"
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

// headerSink and setSink keep TestNewAllocBytes's reference allocations
// on the heap, where New's arrays live.
var (
	headerSink [][]slot[int64]
	setSink    []setState
)

// TestNewAllocBytes pins New at the tracker's and the RIT's paper
// geometries to the per-set slice headers, the per-set masks and
// counters, and a fixed header (the table and its two keyed hashes): no
// slot, memo or other per-key structure is built up front. The two
// per-table arrays are measured as allocated, size-class rounding
// included.
func TestNewAllocBytes(t *testing.T) {
	for _, spec := range []Spec{{Sets: 64, Ways: 20}, {Sets: 256, Ways: 20}} {
		var tab *Table[int64]
		n := allocBytes(func() { tab = New[int64](spec, 3) })
		headers := 2 * allocBytes(func() { headerSink = make([][]slot[int64], spec.Sets) })
		sets := 2 * allocBytes(func() { setSink = make([]setState, spec.Sets) })
		if n < headers+sets || n-headers-sets >= 1<<10 {
			t.Fatalf("%+v: New allocated %d bytes, want %d of set headers + %d of masks and counters + < 1 KiB",
				spec, n, headers, sets)
		}
		if tab.Lookup(12345) != nil {
			t.Fatal("fresh table holds a key")
		}
	}
}

// storedSets counts the sets that have slot storage.
func storedSets[V any](tab *Table[V]) int {
	n := 0
	for ti := range tab.slots {
		for _, ss := range tab.slots[ti] {
			if ss != nil {
				n++
			}
		}
	}
	return n
}

// TestSetStorageOnFirstInstall pins when a set gets its slots: one
// install materializes exactly the set it lands in, with Ways slots;
// Delete and Clear keep that storage, and a re-install into it
// allocates nothing.
func TestSetStorageOnFirstInstall(t *testing.T) {
	spec := Spec{Sets: 256, Ways: 20}
	tab := New[int64](spec, 3)
	if n := storedSets(tab); n != 0 {
		t.Fatalf("fresh table has %d sets with storage, want 0", n)
	}
	ti, s, _ := tab.InstallPos(7, 70)
	if n := storedSets(tab); n != 1 {
		t.Fatalf("after one install %d sets have storage, want 1", n)
	}
	if got := len(tab.slots[ti][s]); got != spec.Ways {
		t.Fatalf("set holds %d slots, want %d", got, spec.Ways)
	}
	tab.Delete(7)
	tab.Install(7, 70)
	tab.Clear()
	if n := storedSets(tab); n != 1 {
		t.Fatalf("after Delete and Clear %d sets have storage, want 1", n)
	}
	if avg := testing.AllocsPerRun(100, func() {
		tab.Install(7, 70)
		tab.Delete(7)
	}); avg != 0 {
		t.Fatalf("re-install into a stored set allocates %.2f allocs/run, want 0", avg)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSparseChecksAllocFree pins CheckInvariants, the presence check
// included, and ForEach at 0 allocations on a table whose sets are mostly without storage, as a
// benign run leaves a RIT sized for the worst case.
func TestSparseChecksAllocFree(t *testing.T) {
	tab := New[int64](Spec{Sets: 256, Ways: 20}, 3)
	for i := uint64(0); i < 100; i++ {
		tab.Install(3*i, int64(i))
	}
	if n := storedSets(tab); n >= 2*256 {
		t.Fatalf("%d sets have storage after 100 installs, want a sparse table", n)
	}
	var sum int64
	add := func(_ uint64, v *int64) bool { sum += *v; return true }
	if avg := testing.AllocsPerRun(20, func() {
		if err := tab.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		tab.ForEach(add)
	}); avg != 0 {
		t.Fatalf("checks and ForEach allocate %.2f allocs/run, want 0", avg)
	}
	if sum == 0 {
		t.Fatal("ForEach visited nothing")
	}
}

// TestPresenceBitsetSizing pins the bitset's growth to the next power of
// two of words: the last row of a Table 2 bank costs 16 KiB of bitset,
// not the 32 KiB that doubling the needed length would take.
func TestPresenceBitsetSizing(t *testing.T) {
	tab := New[int64](Spec{Sets: 256, Ways: 20}, 3)
	tab.Install(uint64(config.Default().RowsPerBank-1), 1)
	if n := len(tab.present) * 8; n > 16<<10 {
		t.Fatalf("presence bitset is %d bytes, want <= 16 KiB", n)
	}
}
