package rit

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cat"
	"repro/internal/invariant"
)

// mustNew and mustInstall are shims for tests whose arguments are valid
// by construction.
func mustNew(spec cat.Spec, capacityTuples int, seed uint64) *RIT {
	r, err := New(spec, capacityTuples, seed)
	if err != nil {
		panic(err)
	}
	return r
}

func mustInstall(r *RIT, x, y uint64) (Eviction, bool) {
	ev, ok, err := r.Install(x, y)
	if err != nil {
		panic(err)
	}
	return ev, ok
}

func newSmall() *RIT {
	return mustNew(cat.Spec{Sets: 16, Ways: 10}, 64, 7)
}

func TestRemapIdentityWhenEmpty(t *testing.T) {
	r := newSmall()
	if got := r.Remap(42); got != 42 {
		t.Fatalf("Remap(42) = %d on empty RIT", got)
	}
}

func TestInstallRemapsBothDirections(t *testing.T) {
	r := newSmall()
	if _, ok := mustInstall(r, 3, 9); !ok {
		t.Fatal("install failed")
	}
	if got := r.Remap(3); got != 9 {
		t.Fatalf("Remap(3) = %d, want 9", got)
	}
	if got := r.Remap(9); got != 3 {
		t.Fatalf("Remap(9) = %d, want 3", got)
	}
	if r.Tuples() != 1 {
		t.Fatalf("Tuples = %d", r.Tuples())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLookup(t *testing.T) {
	r := newSmall()
	r.Install(3, 9)
	if p, ok := r.Lookup(3); !ok || p != 9 {
		t.Fatalf("Lookup(3) = %d,%v", p, ok)
	}
	if _, ok := r.Lookup(4); ok {
		t.Fatal("Lookup(4) found a tuple")
	}
}

func TestContains(t *testing.T) {
	r := newSmall()
	r.Install(3, 9)
	if !r.Contains(3) || !r.Contains(9) {
		t.Fatal("Contains must cover both tuple members")
	}
	if r.Contains(4) {
		t.Fatal("Contains(4) true")
	}
}

func TestRemove(t *testing.T) {
	r := newSmall()
	r.Install(3, 9)
	p, ok := r.Remove(9) // remove by either member
	if !ok || p != 3 {
		t.Fatalf("Remove(9) = %d,%v", p, ok)
	}
	if r.Contains(3) || r.Contains(9) {
		t.Fatal("entries linger after Remove")
	}
	if r.Tuples() != 0 {
		t.Fatalf("Tuples = %d", r.Tuples())
	}
	if _, ok := r.Remove(3); ok {
		t.Fatal("Remove of absent row succeeded")
	}
}

func TestInstallSelfSwapError(t *testing.T) {
	r := newSmall()
	if _, _, err := r.Install(5, 5); !errors.Is(err, ErrSelfSwap) {
		t.Fatalf("Install(5,5) err = %v, want ErrSelfSwap", err)
	}
}

func TestInstallOverExistingError(t *testing.T) {
	r := newSmall()
	r.Install(3, 9)
	if _, _, err := r.Install(9, 12); !errors.Is(err, ErrOccupied) {
		t.Fatalf("Install over live row err = %v, want ErrOccupied", err)
	}
	// The failed install must not have disturbed the existing tuple.
	if got := r.Remap(9); got != 3 {
		t.Fatalf("Remap(9) = %d after rejected install, want 3", got)
	}
}

func TestLockedTuplesNotEvicted(t *testing.T) {
	r := mustNew(cat.Spec{Sets: 16, Ways: 10}, 4, 7)
	for i := uint64(0); i < 4; i++ {
		if _, ok := mustInstall(r, i*2, i*2+1); !ok {
			t.Fatalf("install %d failed", i)
		}
	}
	// At capacity with everything locked: install must fail, not evict.
	if _, ok := mustInstall(r, 100, 101); ok {
		t.Fatal("install evicted a locked tuple")
	}
	if r.Tuples() != 4 {
		t.Fatalf("Tuples = %d", r.Tuples())
	}
}

func TestLazyEvictionAfterClearLocks(t *testing.T) {
	r := mustNew(cat.Spec{Sets: 16, Ways: 10}, 4, 7)
	for i := uint64(0); i < 4; i++ {
		r.Install(i*2, i*2+1)
	}
	r.ClearLocks()
	ev, ok := mustInstall(r, 100, 101)
	if !ok {
		t.Fatal("install after ClearLocks failed")
	}
	if !ev.Happened {
		t.Fatal("install at capacity did not evict")
	}
	ex, ey := ev.X, ev.Y
	lo, hi := ex, ey
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi != lo+1 || lo%2 != 0 || lo >= 8 {
		t.Fatalf("evicted unexpected tuple <%d,%d>", ex, ey)
	}
	if r.Contains(ex) || r.Contains(ey) {
		t.Fatal("evicted tuple still present")
	}
	if r.Tuples() != 4 {
		t.Fatalf("Tuples = %d, want 4", r.Tuples())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewlyInstalledStaysLockedAcrossEvictions(t *testing.T) {
	r := mustNew(cat.Spec{Sets: 16, Ways: 10}, 4, 7)
	for i := uint64(0); i < 4; i++ {
		r.Install(i*2, i*2+1)
	}
	r.ClearLocks()
	// Install 3 new (locked) tuples; each evicts an old one. The new ones
	// must survive.
	for i := uint64(0); i < 3; i++ {
		if _, ok := mustInstall(r, 100+i*2, 101+i*2); !ok {
			t.Fatalf("install %d failed", i)
		}
	}
	for i := uint64(0); i < 3; i++ {
		if !r.Contains(100 + i*2) {
			t.Fatalf("new tuple %d was evicted", i)
		}
	}
	if got := r.LockedTuples(); got != 3 {
		t.Fatalf("LockedTuples = %d, want 3", got)
	}
}

func TestEvictRandomUnlockedEmpty(t *testing.T) {
	r := newSmall()
	if _, _, ok := r.EvictRandomUnlocked(); ok {
		t.Fatal("eviction from empty RIT succeeded")
	}
}

func TestForEachTupleVisitsEachOnce(t *testing.T) {
	r := newSmall()
	want := map[[2]uint64]bool{}
	for i := uint64(0); i < 10; i++ {
		r.Install(i, 100+i)
		want[[2]uint64{i, 100 + i}] = true
	}
	got := map[[2]uint64]bool{}
	r.ForEachTuple(func(x, y uint64, locked bool) bool {
		if !locked {
			t.Fatalf("tuple <%d,%d> not locked", x, y)
		}
		if got[[2]uint64{x, y}] {
			t.Fatalf("tuple <%d,%d> visited twice", x, y)
		}
		got[[2]uint64{x, y}] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %d tuples, want %d", len(got), len(want))
	}
}

func TestCapacityTooBigForGeometryError(t *testing.T) {
	if _, err := New(cat.Spec{Sets: 1, Ways: 2}, 100, 1); !errors.Is(err, invariant.ErrBadGeometry) {
		t.Fatalf("err = %v, want ErrBadGeometry", err)
	}
}

// TestPropertyInvolutionMaintained drives random install/remove/clear
// sequences and checks the involution invariant plus remap consistency
// against a map oracle.
func TestPropertyInvolutionMaintained(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		r := mustNew(cat.Spec{Sets: 16, Ways: 10}, 32, seed)
		oracle := map[uint64]uint64{}
		for _, op := range ops {
			x := uint64(op % 50)
			y := uint64(op%49) + 50
			switch op % 3 {
			case 0: // install if both free and capacity spare
				if _, inX := oracle[x]; inX {
					continue
				}
				if _, inY := oracle[y]; inY {
					continue
				}
				if len(oracle)/2 >= 32 {
					continue
				}
				if _, ok := mustInstall(r, x, y); ok {
					oracle[x], oracle[y] = y, x
				}
			case 1: // remove
				if p, ok := r.Remove(x); ok {
					if oracle[x] != p {
						return false
					}
					delete(oracle, x)
					delete(oracle, p)
				} else if _, present := oracle[x]; present {
					return false
				}
			case 2:
				r.ClearLocks()
			}
			if err := r.CheckInvariants(); err != nil {
				return false
			}
			if r.Tuples() != len(oracle)/2 {
				return false
			}
		}
		for k, v := range oracle {
			if r.Remap(k) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPaperGeometryHoldsFullCapacity(t *testing.T) {
	// Paper configuration: 3400 tuples in 2 x 256 sets x 20 ways.
	r := mustNew(cat.Spec{Sets: 256, Ways: 20}, 3400, 3)
	for i := 0; i < 3400; i++ {
		x := uint64(i)
		y := uint64(100000 + i)
		if _, ok := mustInstall(r, x, y); !ok {
			t.Fatalf("install %d failed in paper geometry", i)
		}
	}
	if r.Tuples() != 3400 {
		t.Fatalf("Tuples = %d", r.Tuples())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRemapHit(b *testing.B) {
	r := mustNew(cat.Spec{Sets: 256, Ways: 20}, 3400, 3)
	for i := 0; i < 3400; i++ {
		r.Install(uint64(i), uint64(100000+i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Remap(uint64(i % 3400))
	}
}

func BenchmarkRemapMiss(b *testing.B) {
	r := mustNew(cat.Spec{Sets: 256, Ways: 20}, 3400, 3)
	for i := 0; i < 3400; i++ {
		r.Install(uint64(i), uint64(100000+i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Remap(uint64(50000 + i%1000))
	}
}

// TestEvictionSequencePinned pins the exact stream of lazy evictions: a
// small RIT full of unlocked tuples takes 1,000 over-capacity installs,
// each of which evicts one tuple chosen by the table's RandomEntry. The
// first evictions are spelled out and the whole sequence is folded into
// an FNV-1a digest, so any change to RandomEntry's probe order, the RNG
// stream or the slot layout it reads shows here.
func TestEvictionSequencePinned(t *testing.T) {
	r := mustNew(cat.Spec{Sets: 16, Ways: 10}, 64, 7)
	for i := uint64(0); i < 64; i++ {
		if _, ok := mustInstall(r, 2*i, 2*i+1); !ok {
			t.Fatalf("fill install %d failed", i)
		}
	}
	var got [][2]uint64
	digest := uint64(14695981039346656037)
	for i := uint64(64); i < 64+1000; i++ {
		r.ClearLocks()
		ev, ok := mustInstall(r, 2*i, 2*i+1)
		if !ok || !ev.Happened {
			t.Fatalf("install %d: ok %v, eviction %+v", i, ok, ev)
		}
		got = append(got, [2]uint64{ev.X, ev.Y})
		for _, v := range [2]uint64{ev.X, ev.Y} {
			digest = (digest ^ v) * 1099511628211
		}
	}
	first := [][2]uint64{{97, 96}, {57, 56}, {53, 52}, {82, 83}, {113, 112}, {51, 50}, {88, 89}, {75, 74}}
	for i, want := range first {
		if got[i] != want {
			t.Fatalf("eviction %d = %v, want %v (first evictions %v)", i, got[i], want, got[:len(first)])
		}
	}
	if want := uint64(0x9f11d2c0fa692909); digest != want {
		t.Fatalf("eviction-sequence digest %#x, want %#x", digest, want)
	}
}
