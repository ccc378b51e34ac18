// Fault-injection suite: every corruption class the structure packages
// expose a test hook for must be detected by the corresponding
// CheckInvariants/Verify sweep (or by the hot-path shadow oracle) as a
// typed *invariant.Violation naming the broken catalog invariant. A
// single undetected injection fails the suite — this is the evidence
// behind the "paranoid mode detects silent state corruption" claim.
package invariant_test

import (
	"testing"

	"repro/internal/cat"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/rit"
	"repro/internal/tracker"
)

// wantViolation asserts that err is a *invariant.Violation for the named
// catalog invariant.
func wantViolation(t *testing.T, err error, name string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption went undetected (want a %s violation)", name)
	}
	v := invariant.AsViolation(err)
	if v == nil {
		t.Fatalf("err = %v (%T), want *invariant.Violation", err, err)
	}
	if v.Invariant != name {
		t.Fatalf("violation names %q, want %q (detail: %s)", v.Invariant, name, v.Detail)
	}
}

// faultRIT builds a RIT holding 12 tuples <2i, 1000+2i>, checked clean.
func faultRIT(t *testing.T) *rit.RIT {
	t.Helper()
	r, err := rit.New(cat.Spec{Sets: 16, Ways: 10}, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 12; i++ {
		if _, ok, err := r.Install(2*i, 1000+2*i); err != nil || !ok {
			t.Fatalf("install %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("pre-injection state not clean: %v", err)
	}
	return r
}

func TestFaultRIT(t *testing.T) {
	cases := []struct {
		name string
		want string
		hurt func(r *rit.RIT)
	}{
		{"partner-rewrite", "rit/involution", func(r *rit.RIT) { r.CorruptPartnerForTest(0, 777) }},
		{"lock-flip", "rit/locks", func(r *rit.RIT) { r.CorruptLockForTest(0) }},
		{"tuple-counter", "rit/count", func(r *rit.RIT) { r.CorruptTuplesForTest(1) }},
		{"presence-cleared", "cat/presence", func(r *rit.RIT) { r.CorruptPresenceForTest(0) }},
		{"presence-stale", "cat/presence", func(r *rit.RIT) { r.CorruptPresenceForTest(999) }},
		{"bigrows-counter", "cat/presence", func(r *rit.RIT) { r.CorruptBigRowsForTest(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := faultRIT(t)
			tc.hurt(r)
			wantViolation(t, r.CheckInvariants(), tc.want)
		})
	}
}

func TestFaultRITShadowSweep(t *testing.T) {
	eng := invariant.NewEngine()
	r := faultRIT(t)
	r.EnableShadow(eng)
	if err := r.VerifyShadow(); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}
	r.CorruptPartnerForTest(0, 777)
	wantViolation(t, r.VerifyShadow(), "rit/shadow")
}

func TestFaultRITShadowRemap(t *testing.T) {
	eng := invariant.NewEngine()
	r := faultRIT(t)
	r.EnableShadow(eng)
	r.CorruptPartnerForTest(0, 777)
	// The hot-path differential oracle flags the very next remap of the
	// corrupted row, without waiting for a structural sweep.
	if got := r.Remap(0); got != 777 {
		t.Fatalf("Remap(0) = %d, corrupted table should answer 777", got)
	}
	wantViolation(t, eng.Err(), "rit/shadow")
}

// faultCAM builds a warmed CAM (8 entries, T = 5) with live spill and a
// populated minimum cache, checked clean.
func faultCAM(t *testing.T) *tracker.CAM {
	t.Helper()
	c, err := tracker.NewCAM(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		c.Observe(uint64(i % 13))
	}
	if c.Spill() == 0 || c.Len() != c.Capacity() {
		t.Fatalf("warmup left spill %d, len %d", c.Spill(), c.Len())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("pre-injection state not clean: %v", err)
	}
	return c
}

// trackedRow returns some row the tracker currently holds.
func trackedRow(t *testing.T, tr tracker.Tracker) uint64 {
	t.Helper()
	for row := uint64(0); row < 1000; row++ {
		if tr.Contains(row) {
			return row
		}
	}
	t.Fatal("no tracked row found")
	return 0
}

func TestFaultCAM(t *testing.T) {
	cases := []struct {
		name string
		want string
		hurt func(tt *testing.T, c *tracker.CAM)
	}{
		{"minval-cache", "tracker/min", func(_ *testing.T, c *tracker.CAM) { c.CorruptMinValForTest(1) }},
		{"mincount-cache", "tracker/min", func(_ *testing.T, c *tracker.CAM) { c.CorruptMinCountForTest(1) }},
		{"count-skew", "tracker/min", func(tt *testing.T, c *tracker.CAM) {
			// Lowering one live counter below the cached minimum makes the
			// exact rescan diverge from the cache.
			c.CorruptCountForTest(trackedRow(tt, c), -1)
		}},
		{"row-rewrite", "tracker/index", func(tt *testing.T, c *tracker.CAM) {
			c.CorruptRowForTest(trackedRow(tt, c), 987654)
		}},
		{"spill-skew", "tracker/spill", func(_ *testing.T, c *tracker.CAM) { c.CorruptSpillForTest(1 << 20) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := faultCAM(t)
			tc.hurt(t, c)
			wantViolation(t, c.CheckInvariants(), tc.want)
		})
	}
}

// faultCAT builds a warmed CAT tracker (16 entries over a 2x8x8 table,
// T = 5), checked clean.
func faultCAT(t *testing.T) *tracker.CAT {
	t.Helper()
	c, err := tracker.NewCAT(cat.Spec{Sets: 8, Ways: 8}, 16, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		c.Observe(uint64(i % 25))
	}
	if c.Len() == 0 {
		t.Fatal("warmup tracked nothing")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("pre-injection state not clean: %v", err)
	}
	return c
}

func TestFaultCAT(t *testing.T) {
	cases := []struct {
		name string
		want string
		hurt func(tt *testing.T, c *tracker.CAT)
	}{
		{"setmin-skew", "tracker/setmin", func(tt *testing.T, c *tracker.CAT) {
			// Skewing every set's counter guarantees at least one holds an
			// entry whose exact minimum no longer matches.
			for s := 0; s < 8; s++ {
				c.CorruptSetMinForTest(0, s, 1)
				c.CorruptSetMinForTest(1, s, 1)
			}
		}},
		{"gmin-cache", "tracker/setmin", func(_ *testing.T, c *tracker.CAT) { c.CorruptGminForTest(42) }},
		{"relocs-counter", "tracker/relocs", func(_ *testing.T, c *tracker.CAT) { c.CorruptRelocsForTest(1) }},
		{"spill-skew", "tracker/spill", func(_ *testing.T, c *tracker.CAT) { c.CorruptSpillForTest(1 << 20) }},
		{"presence-cleared", "cat/presence", func(tt *testing.T, c *tracker.CAT) {
			c.CorruptPresenceForTest(trackedRow(tt, c))
		}},
		{"presence-stale", "cat/presence", func(tt *testing.T, c *tracker.CAT) {
			for row := uint64(0); ; row++ {
				if !c.Contains(row) {
					c.CorruptPresenceForTest(row)
					return
				}
			}
		}},
		{"bigrows-counter", "cat/presence", func(_ *testing.T, c *tracker.CAT) { c.CorruptBigRowsForTest(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := faultCAT(t)
			tc.hurt(t, c)
			wantViolation(t, c.CheckInvariants(), tc.want)
		})
	}
}

// TestFaultCATTable injects corruption into the underlying two-table
// structure through its owner; CAT.CheckInvariants delegates to the
// table's own checks, so these violations surface through the tracker.
func TestFaultCATTable(t *testing.T) {
	cases := []struct {
		name string
		want string
		hurt func(tt *testing.T, c *tracker.CAT)
	}{
		{"invalid-counter", "cat/occupancy", func(_ *testing.T, c *tracker.CAT) {
			c.TableForTest().CorruptInvalidCountForTest(0, 0, 1)
		}},
		{"size-counter", "cat/size", func(_ *testing.T, c *tracker.CAT) {
			c.TableForTest().CorruptSizeForTest(1)
		}},
		{"dropped-entry", "cat/occupancy", func(tt *testing.T, c *tracker.CAT) {
			if !c.TableForTest().DropEntryForTest(trackedRow(tt, c)) {
				tt.Fatal("drop hook missed")
			}
		}},
		{"memo-rewrite", "cat/memo", func(tt *testing.T, c *tracker.CAT) {
			// Find any row whose set-index memo entry is live; 31 cannot be
			// a real set index with 8 sets.
			for row := uint64(0); row < 1000; row++ {
				if c.TableForTest().CorruptMemoForTest(row, 31, 31) {
					return
				}
			}
			tt.Fatal("no memoized key found")
		}},
		{"key-rewrite", "cat/placement", func(tt *testing.T, c *tracker.CAT) {
			// Rewrite a stored key until the replacement hashes to a
			// different set (1/8 odds of a silent miss per candidate, so
			// try a few; revert the misses to keep the state clean).
			old := trackedRow(tt, c)
			for cand := uint64(1 << 30); cand < 1<<30+64; cand++ {
				if !c.TableForTest().CorruptKeyForTest(old, cand) {
					tt.Fatal("key hook missed")
				}
				if c.CheckInvariants() != nil {
					return
				}
				c.TableForTest().CorruptKeyForTest(cand, old)
			}
			tt.Fatal("no candidate key broke placement")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := faultCAT(t)
			tc.hurt(t, c)
			wantViolation(t, c.CheckInvariants(), tc.want)
		})
	}
}

// TestFaultTrackerShadow corrupts the wrapped tracker behind the shadow
// model's back; the differential sweep must flag the divergence.
func TestFaultTrackerShadow(t *testing.T) {
	eng := invariant.NewEngine()
	inner, err := tracker.NewCAM(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh := tracker.NewShadow(inner, eng)
	for i := 0; i < 120; i++ {
		sh.Observe(uint64(i % 13))
	}
	if err := eng.Err(); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	if err := sh.Verify(); err != nil {
		t.Fatalf("clean sweep flagged: %v", err)
	}
	inner.CorruptCountForTest(trackedRow(t, inner), 3)
	wantViolation(t, sh.Verify(), "tracker/shadow")
}

// TestFaultTrackerShadowLyingEvictionLog makes the wrapped tracker's
// eviction log misreport the victim of a real eviction; the oracle's
// eviction protocol must reject the reported row.
func TestFaultTrackerShadowLyingEvictionLog(t *testing.T) {
	eng := invariant.NewEngine()
	inner, err := tracker.NewCAM(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh := tracker.NewShadow(inner, eng)
	// Fill to capacity (counts 1, spill 0), then one spill advance pulls
	// the spill counter up to the minimum: the following miss evicts.
	for i := uint64(1); i <= 4; i++ {
		sh.Observe(i)
	}
	sh.Observe(10)
	if err := eng.Err(); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	inner.CorruptEvictionLogForTest(99)
	sh.Observe(11)
	wantViolation(t, eng.Err(), "tracker/shadow")
}

// faultDRAM builds a small DRAM system with a few activated rows and
// written content tags, checked clean, returning a bank to corrupt.
func faultDRAM(t *testing.T) (*dram.System, dram.BankID) {
	t.Helper()
	cfg := config.Default()
	cfg.RowsPerBank = 1 << 10
	sys, err := dram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var id dram.BankID
	first := true
	sys.EachBank(func(b dram.BankID, _ *dram.Bank) {
		if first {
			id, first = b, false
		}
	})
	for row := 0; row < 8; row++ {
		sys.Activate(id, row, int64(row))
		sys.SetRowContent(id, row, uint64(100+row))
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("pre-injection state not clean: %v", err)
	}
	return sys, id
}

func TestFaultDRAMStructure(t *testing.T) {
	cases := []struct {
		name string
		hurt func(sys *dram.System, id dram.BankID)
	}{
		{"dirty-zero-acts", func(sys *dram.System, id dram.BankID) {
			sys.CorruptDirtyForTest(id, 900) // never activated
		}},
		{"dirty-duplicate", func(sys *dram.System, id dram.BankID) {
			sys.CorruptDirtyForTest(id, 3) // already dirty from warmup
		}},
		{"overflow-in-dense-tier", func(sys *dram.System, id dram.BankID) {
			sys.CorruptOverflowForTest(id, 5, 42)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, id := faultDRAM(t)
			tc.hurt(sys, id)
			wantViolation(t, sys.CheckInvariants(), "dram/structure")
		})
	}
}

// TestFaultDRAMTornSwap loses one row's content mid-swap; the
// conservation check re-reads both rows and must catch the loss.
func TestFaultDRAMTornSwap(t *testing.T) {
	sys, id := faultDRAM(t)
	eng := invariant.NewEngine()
	sys.EnableParanoid(eng)
	sys.TearNextSwapForTest()
	sys.SwapRows(id, 2, 3, 0)
	wantViolation(t, eng.Err(), "dram/swap-conservation")
}
