package cat

import (
	"testing"
	"testing/quick"

	"repro/internal/prince"
)

func newSmall(t *testing.T) *Table[int] {
	t.Helper()
	return New[int](Spec{Sets: 8, Ways: 4}, 1)
}

func TestLookupMissingReturnsNil(t *testing.T) {
	tab := newSmall(t)
	if tab.Lookup(42) != nil {
		t.Fatal("lookup on empty table returned entry")
	}
}

func TestInstallThenLookup(t *testing.T) {
	tab := newSmall(t)
	p := tab.Install(42, 7)
	if p == nil || *p != 7 {
		t.Fatalf("install returned %v", p)
	}
	if got := tab.Lookup(42); got == nil || *got != 7 {
		t.Fatalf("lookup after install = %v", got)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
}

func TestInPlaceMutation(t *testing.T) {
	tab := newSmall(t)
	tab.Install(1, 10)
	*tab.Lookup(1) = 99
	if got := *tab.Lookup(1); got != 99 {
		t.Fatalf("after mutation, value = %d, want 99", got)
	}
}

func TestDelete(t *testing.T) {
	tab := newSmall(t)
	tab.Install(5, 1)
	if !tab.Delete(5) {
		t.Fatal("Delete returned false for present key")
	}
	if tab.Delete(5) {
		t.Fatal("Delete returned true for absent key")
	}
	if tab.Lookup(5) != nil {
		t.Fatal("entry still visible after delete")
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tab.Len())
	}
}

func TestDuplicateInstallPanics(t *testing.T) {
	tab := newSmall(t)
	tab.Install(3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate install")
		}
	}()
	tab.Install(3, 2)
}

func TestInstallManyNoConflictWithExtraWays(t *testing.T) {
	// 2 tables x 64 sets x 20 ways = 2560 slots; installing the paper's
	// tracker capacity (1700) must never conflict.
	tab := New[int](Spec{Sets: 64, Ways: 20}, 7)
	for i := 0; i < 1700; i++ {
		if tab.Install(uint64(i), i) == nil {
			t.Fatalf("conflict at install %d", i)
		}
	}
	if tab.Conflicts() != 0 {
		t.Fatalf("conflicts = %d, want 0", tab.Conflicts())
	}
	for i := 0; i < 1700; i++ {
		if v := tab.Lookup(uint64(i)); v == nil || *v != i {
			t.Fatalf("key %d lost or corrupted: %v", i, v)
		}
	}
}

func TestLenTracksInstallsAndDeletes(t *testing.T) {
	tab := New[int](Spec{Sets: 32, Ways: 8}, 3)
	for i := 0; i < 100; i++ {
		tab.Install(uint64(i), i)
	}
	for i := 0; i < 100; i += 2 {
		tab.Delete(uint64(i))
	}
	if tab.Len() != 50 {
		t.Fatalf("Len = %d, want 50", tab.Len())
	}
}

func TestForEachVisitsAll(t *testing.T) {
	tab := New[int](Spec{Sets: 16, Ways: 8}, 5)
	want := map[uint64]int{}
	for i := 0; i < 60; i++ {
		tab.Install(uint64(i)*3, i)
		want[uint64(i)*3] = i
	}
	got := map[uint64]int{}
	tab.ForEach(func(k uint64, v *int) bool {
		got[k] = *v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: got %d want %d", k, got[k], v)
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	tab := New[int](Spec{Sets: 16, Ways: 8}, 5)
	for i := 0; i < 60; i++ {
		tab.Install(uint64(i), i)
	}
	visits := 0
	tab.ForEach(func(k uint64, v *int) bool {
		visits++
		return visits < 10
	})
	if visits != 10 {
		t.Fatalf("visits = %d, want 10", visits)
	}
}

func TestRandomEntryRespectsPredicate(t *testing.T) {
	tab := New[int](Spec{Sets: 16, Ways: 8}, 5)
	for i := 0; i < 100; i++ {
		tab.Install(uint64(i), i)
	}
	rng := prince.Seeded(11)
	for trial := 0; trial < 50; trial++ {
		k, v, ok := tab.RandomEntry(rng, func(_ uint64, v *int) bool { return *v%2 == 1 })
		if !ok {
			t.Fatal("no qualifying entry found")
		}
		if *v%2 != 1 || k != uint64(*v) {
			t.Fatalf("predicate violated: key=%d val=%d", k, *v)
		}
	}
}

func TestRandomEntryNoQualifier(t *testing.T) {
	tab := New[int](Spec{Sets: 16, Ways: 8}, 5)
	for i := 0; i < 10; i++ {
		tab.Install(uint64(i), i)
	}
	_, _, ok := tab.RandomEntry(prince.Seeded(1), func(uint64, *int) bool { return false })
	if ok {
		t.Fatal("RandomEntry returned ok with impossible predicate")
	}
}

func TestRandomEntryEmptyTable(t *testing.T) {
	tab := newSmall(t)
	if _, _, ok := tab.RandomEntry(prince.Seeded(1), nil); ok {
		t.Fatal("RandomEntry on empty table returned ok")
	}
}

func TestRandomEntryUniformish(t *testing.T) {
	tab := New[int](Spec{Sets: 8, Ways: 8}, 5)
	const n = 16
	for i := 0; i < n; i++ {
		tab.Install(uint64(i), i)
	}
	rng := prince.Seeded(17)
	counts := make([]int, n)
	const draws = n * 400
	for i := 0; i < draws; i++ {
		k, _, ok := tab.RandomEntry(rng, nil)
		if !ok {
			t.Fatal("no entry")
		}
		counts[k]++
	}
	for i, c := range counts {
		if c < draws/n/3 || c > draws/n*3 {
			t.Errorf("key %d drawn %d times, expected about %d", i, c, draws/n)
		}
	}
}

func TestPropertyInstallDeleteConsistency(t *testing.T) {
	// Random interleavings of installs and deletes keep Lookup consistent
	// with a map oracle.
	f := func(ops []uint16, seed uint64) bool {
		tab := New[uint64](Spec{Sets: 16, Ways: 8}, seed)
		oracle := make(map[uint64]uint64)
		for _, op := range ops {
			key := uint64(op % 97)
			if _, present := oracle[key]; present {
				tab.Delete(key)
				delete(oracle, key)
			} else if len(oracle) < 100 {
				if tab.Install(key, key*3) == nil {
					return false // conflict at trivial load
				}
				oracle[key] = key * 3
			}
			if tab.Len() != len(oracle) {
				return false
			}
		}
		for k, v := range oracle {
			p := tab.Lookup(k)
			if p == nil || *p != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSetLoadAccounting(t *testing.T) {
	tab := New[int](Spec{Sets: 4, Ways: 4}, 9)
	total := 0
	for i := 0; i < 12; i++ {
		tab.Install(uint64(i)*131, i)
	}
	for ti := 0; ti < 2; ti++ {
		for s := 0; s < 4; s++ {
			load := tab.SetLoad(ti, s)
			if load < 0 || load > 4 {
				t.Fatalf("impossible load %d", load)
			}
			total += load
		}
	}
	if total != 12 {
		t.Fatalf("sum of set loads = %d, want 12", total)
	}
}

func TestConflictAndRelocation(t *testing.T) {
	// A tiny CAT (1 set per table, 2 ways) conflicts quickly; relocation
	// cannot help since both tables have a single set. Install must return
	// nil rather than evict silently.
	tab := New[int](Spec{Sets: 1, Ways: 2}, 3)
	installed := 0
	for i := 0; i < 10; i++ {
		if tab.Install(uint64(i), i) != nil {
			installed++
		}
	}
	if installed != 4 {
		t.Fatalf("installed %d entries into 4 slots", installed)
	}
	if tab.Conflicts() == 0 {
		t.Fatal("expected conflicts on overfull tiny CAT")
	}
}

func TestInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New[int](Spec{Sets: 0, Ways: 4}, 1)
}

func TestSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Sets: 64, Ways: 20}, true},
		{Spec{Sets: 1, Ways: 1}, true},
		{Spec{Sets: 2, Ways: 64}, true},
		{Spec{Sets: 0, Ways: 4}, false},
		{Spec{Sets: 4, Ways: 0}, false},
		{Spec{Sets: -1, Ways: 4}, false},
		// One uint64 occupancy mask covers a set, so 64 ways is the cap.
		{Spec{Sets: 4, Ways: 65}, false},
	} {
		if err := tc.spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v: Validate() = %v, want ok=%v", tc.spec, err, tc.ok)
		}
	}
}

// TestSixtyFourWays exercises the full-width mask: every way of a
// one-set, 64-way table fills, the 129th install conflicts, and the way
// a delete frees takes the next install.
func TestSixtyFourWays(t *testing.T) {
	tab := New[int](Spec{Sets: 1, Ways: 64}, 2)
	for k := uint64(0); k < 128; k++ {
		if tab.Install(k, int(k)) == nil {
			t.Fatalf("install %d conflicted below capacity", k)
		}
	}
	if tab.Install(1000, 0) != nil {
		t.Fatal("install into a full table succeeded")
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !tab.Delete(63) || tab.Install(1000, 7) == nil || *tab.Lookup(1000) != 7 {
		t.Fatal("freed way not reused")
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConflictExperimentMoreExtraWaysLastLonger(t *testing.T) {
	base := ConflictExperiment{
		Sets:        16,
		DemandWays:  6,
		MaxInstalls: 200000,
		Trials:      3,
		Seed:        42,
	}
	e1 := base
	e1.ExtraWays = 1
	r1 := e1.Run()
	e2 := base
	e2.ExtraWays = 2
	r2 := e2.Run()
	if r1.Conflicted == 0 {
		t.Skip("no conflict observed for 1 extra way at this scale")
	}
	if r2.Conflicted > 0 && r2.MeanInstalls < r1.MeanInstalls {
		t.Fatalf("2 extra ways conflicted sooner (%v) than 1 (%v)",
			r2.MeanInstalls, r1.MeanInstalls)
	}
}

func TestConflictExperimentDeterministic(t *testing.T) {
	e := ConflictExperiment{
		Sets: 8, DemandWays: 4, ExtraWays: 1,
		MaxInstalls: 50000, Trials: 2, Seed: 7,
	}
	a, b := e.Run(), e.Run()
	if a != b {
		t.Fatalf("experiment not deterministic: %+v vs %+v", a, b)
	}
}

func TestExtrapolateInstalls(t *testing.T) {
	measured := map[int]float64{1: 1e3, 2: 1e5}
	out := ExtrapolateInstalls(measured, 1, 4)
	// c = 5 - 2*3 = -1; E=3 -> 2*5-1 = 9; E=4 -> 2*9-1 = 17.
	if got := out[3]; got != 9 {
		t.Fatalf("E=3 log10 = %v, want 9", got)
	}
	if got := out[4]; got != 17 {
		t.Fatalf("E=4 log10 = %v, want 17", got)
	}
}

func TestExtrapolateInstallsSinglePoint(t *testing.T) {
	out := ExtrapolateInstalls(map[int]float64{2: 1e4}, 2, 4)
	if out[3] != 8 || out[4] != 16 {
		t.Fatalf("single-point extrapolation wrong: %v", out)
	}
}

func TestExtrapolateInstallsEmpty(t *testing.T) {
	if out := ExtrapolateInstalls(nil, 1, 3); len(out) != 0 {
		t.Fatalf("expected empty result, got %v", out)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	tab := New[int](Spec{Sets: 256, Ways: 20}, 1)
	for i := 0; i < 3400; i++ {
		tab.Install(uint64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(uint64(i % 3400))
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	tab := New[int](Spec{Sets: 256, Ways: 20}, 1)
	for i := 0; i < 3400; i++ {
		tab.Install(uint64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(uint64(i%3400) + (1 << 20))
	}
}

// TestPresenceExact drives installs, deletes, DeleteAt, cuckoo
// relocations and Clear through a small, crowded table and checks after
// every step that the miss-path bitset agrees exactly with membership —
// for keys under the bitset bound and for keys over it.
func TestPresenceExact(t *testing.T) {
	tab := New[uint64](Spec{Sets: 4, Ways: 3}, 11)
	rng := prince.Seeded(4)
	oracle := make(map[uint64]bool)
	universe := make([]uint64, 0, 64)
	for i := uint64(0); i < 32; i++ {
		universe = append(universe, i*37, maxBitsetKeys+i<<30)
	}
	check := func(step int, op string) {
		t.Helper()
		if err := tab.CheckInvariants(); err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		for _, k := range universe {
			if got := tab.Contains(k); got != oracle[k] {
				t.Fatalf("step %d (%s): Contains(%#x) = %v, oracle %v", step, op, k, got, oracle[k])
			}
		}
	}
	for step := 0; step < 4000; step++ {
		k := universe[rng.Intn(len(universe))]
		var op string
		switch r := rng.Intn(20); {
		case r == 0:
			op = "clear"
			tab.Clear()
			clear(oracle)
		case r < 4:
			op = "delete-at"
			ti, s := rng.Intn(2), rng.Intn(4)
			tab.ForEachInSet(ti, s, func(way int, key uint64, _ *uint64) bool {
				if got := tab.DeleteAt(ti, s, way); got != key {
					t.Fatalf("DeleteAt returned %#x, slot held %#x", got, key)
				}
				delete(oracle, key)
				return false
			})
		case oracle[k]:
			op = "delete"
			if !tab.Delete(k) {
				t.Fatalf("step %d: Delete(%#x) missed a present key", step, k)
			}
			delete(oracle, k)
		default:
			op = "install"
			if tab.Install(k, k) != nil {
				oracle[k] = true
			}
		}
		check(step, op)
	}
	if tab.Relocations() == 0 {
		t.Fatal("no cuckoo relocation happened; the test does not cover one")
	}
}

// TestDuplicateInstallPanicsLargeKey covers the duplicate check for keys
// over the bitset bound, which falls back to the set scan.
func TestDuplicateInstallPanicsLargeKey(t *testing.T) {
	tab := newSmall(t)
	tab.Install(maxBitsetKeys+5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate install")
		}
	}()
	tab.Install(maxBitsetKeys+5, 2)
}

func TestDeleteAtInvalidWayPanics(t *testing.T) {
	tab := newSmall(t)
	ti, s, _ := tab.InstallPos(3, 1)
	way := -1
	tab.ForEachInSet(ti, s, func(w int, _ uint64, _ *int) bool { way = w; return false })
	tab.DeleteAt(ti, s, way)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on DeleteAt of an invalid way")
		}
	}()
	tab.DeleteAt(ti, s, way)
}

// BenchmarkInstallDelete is the tracker's eviction churn on the paper's
// tracker geometry: 1700 resident keys, every iteration installs a fresh
// key and deletes the oldest, so every install hashes.
func BenchmarkInstallDelete(b *testing.B) {
	const live, span = 1700, 1 << 17
	tab := New[int64](Spec{Sets: 64, Ways: 20}, 1)
	for i := uint64(0); i < live; i++ {
		tab.Install(i, 1)
	}
	b.ResetTimer()
	for i := uint64(0); i < uint64(b.N); i++ {
		tab.Install((i+live)%span, 1)
		tab.Delete(i % span)
	}
}
