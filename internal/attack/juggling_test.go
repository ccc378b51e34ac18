package attack

import (
	"testing"

	"repro/internal/dram"
)

func TestNearMissCounters(t *testing.T) {
	cfg := ScaleConfig()
	sys := dram.MustNew(cfg)
	fm := NewFaultModel(sys, 100, -1) // flip at 100, no distance-2 coupling
	id := dram.BankID{}

	// 24 double-sided rounds: the victim (row 100) sits at 48 — below
	// the near-miss line (50); the outer rows 98/102 sit at 24.
	for i := 0; i < 24; i++ {
		sys.Activate(id, 99, int64(i))
		sys.Activate(id, 101, int64(i))
	}
	if fm.NearMisses() != 0 {
		t.Fatalf("near misses = %d before crossing half", fm.NearMisses())
	}
	// One more round takes the victim to 50: exactly one near miss, no
	// flip yet.
	sys.Activate(id, 99, 25)
	sys.Activate(id, 101, 25)
	if fm.NearMisses() != 1 {
		t.Fatalf("near misses = %d, want 1", fm.NearMisses())
	}
	if fm.FlipCount() != 0 {
		t.Fatal("flip before the threshold")
	}
	if p := fm.PeakDisturbance(); p < 0.5 || p >= 1 {
		t.Fatalf("peak disturbance = %v, want in [0.5, 1)", p)
	}
	// 60 more rounds: the victim flips at +25 rounds (100 summed), then
	// climbs past 50 again (+70 by the end) for a second crossing; the
	// outer rows 98/102 reach 85 each, crossing 50 once apiece. Total:
	// one flip, four near misses.
	for i := 0; i < 60; i++ {
		sys.Activate(id, 99, int64(100+i))
		sys.Activate(id, 101, int64(100+i))
	}
	if fm.FlipCount() != 1 {
		t.Fatalf("flips = %d, want 1", fm.FlipCount())
	}
	if fm.PeakDisturbance() < 1 {
		t.Fatalf("peak disturbance = %v after a flip", fm.PeakDisturbance())
	}
	if fm.NearMisses() != 4 {
		t.Fatalf("near misses = %d after flip, want 4", fm.NearMisses())
	}
}

func TestJugglingAlternatesOccupants(t *testing.T) {
	// A synthetic occupant map: slot p hosts logical row p+1000.
	p := NewJuggling(100, func(phys int) int { return phys + 1000 })
	if r := p.NextRow(); r != 1099 {
		t.Fatalf("first access = %d, want occupant of slot 99", r)
	}
	if r := p.NextRow(); r != 1101 {
		t.Fatalf("second access = %d, want occupant of slot 101", r)
	}
	if p.Name() != "juggling" {
		t.Fatalf("name %q", p.Name())
	}
}

// TestOccupantOracleFallsBackToRemap pins the involution property the
// fallback relies on: for RRS, Remap IS the occupant map (swapped pairs
// map to each other), and for identity defenses it is trivially so.
func TestOccupantOracleFallsBackToRemap(t *testing.T) {
	cfg := ScaleConfig()
	ctl, _ := NewSystem(cfg, 0, -1, nil) // no mitigation: identity remap
	occ := OccupantOracle(ctl, dram.BankID{})
	if occ(123) != 123 {
		t.Fatalf("identity occupant(123) = %d", occ(123))
	}
}
