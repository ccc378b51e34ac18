package core

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
)

// TestNewRRSAllocBytes pins construction at Table 2 geometry: every
// bank's RIT and tracker give a CAT set its slots only when the set
// first holds an entry, so a fresh RRS holds set headers, masks and
// keyed hashes, not 32 banks' worth of worst-case-sized slot arrays
// (about 9.6 MB).
func TestNewRRSAllocBytes(t *testing.T) {
	cfg := config.Default()
	sys := dram.MustNew(cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := New(sys, DefaultParams(cfg))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 2<<20 {
		t.Fatalf("New allocated %d bytes over %d banks, want < 2 MiB", n, len(r.units))
	}
}
