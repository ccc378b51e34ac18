package config

import (
	"strings"
	"testing"
)

func TestDefaultMatchesTable2(t *testing.T) {
	cfg := Default()
	if cfg.Cores != 8 || cfg.ROBSize != 192 || cfg.FetchWidth != 4 {
		t.Fatalf("CPU config %+v", cfg)
	}
	if cfg.LLCBytes != 8<<20 || cfg.LLCWays != 16 || cfg.LineBytes != 64 {
		t.Fatalf("LLC config %+v", cfg)
	}
	if cfg.Channels != 2 || cfg.Ranks != 1 || cfg.Banks != 16 {
		t.Fatalf("topology %+v", cfg)
	}
	if cfg.RowsPerBank != 128<<10 || cfg.RowBytes != 8<<10 {
		t.Fatalf("bank geometry %+v", cfg)
	}
	if cfg.RowHammerThreshold != 4800 {
		t.Fatalf("T_RH = %d", cfg.RowHammerThreshold)
	}
	// 32 GB of DRAM.
	if cfg.MemoryBytes() != 32<<30 {
		t.Fatalf("memory = %d GB", cfg.MemoryBytes()>>30)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTimingInBusCycles(t *testing.T) {
	cfg := Default()
	// 45 ns at 1.6 GHz = 72 cycles; 14 ns = 22 cycles (rounded).
	if cfg.TRC != 72 {
		t.Fatalf("TRC = %d, want 72", cfg.TRC)
	}
	if cfg.TRCD != 22 || cfg.TRP != 22 || cfg.TCAS != 22 {
		t.Fatalf("tRCD/tRP/tCAS = %d/%d/%d", cfg.TRCD, cfg.TRP, cfg.TCAS)
	}
	// 64 ms epoch.
	if cfg.EpochCycles != int64(64e-3*1.6e9) {
		t.Fatalf("EpochCycles = %d", cfg.EpochCycles)
	}
}

func TestACTMaxNearPaper(t *testing.T) {
	// The paper quotes 1.36M activations per bank per 64 ms; exact cycle
	// arithmetic gives ~1.42M before refresh overhead.
	got := Default().ACTMax()
	if got < 1_300_000 || got > 1_450_000 {
		t.Fatalf("ACTMax = %d", got)
	}
}

func TestScaledPreservesRatios(t *testing.T) {
	cfg := Default()
	s := cfg.Scaled(16)
	if s.EpochCycles != cfg.EpochCycles/16 {
		t.Fatalf("epoch %d", s.EpochCycles)
	}
	if s.RowHammerThreshold != cfg.RowHammerThreshold/16 {
		t.Fatalf("T_RH %d", s.RowHammerThreshold)
	}
	// ACT_max / T_RH is scale-invariant (structure sizing preserved).
	a := float64(cfg.ACTMax()) / float64(cfg.RowHammerThreshold)
	b := float64(s.ACTMax()) / float64(s.RowHammerThreshold)
	if b < a*0.95 || b > a*1.05 {
		t.Fatalf("sizing ratio drifted: %.1f vs %.1f", a, b)
	}
}

func TestScaledClampsThreshold(t *testing.T) {
	s := Default().Scaled(10000)
	if s.RowHammerThreshold < 6 {
		t.Fatalf("T_RH = %d below clamp", s.RowHammerThreshold)
	}
}

func TestScaledFactorOneIsIdentity(t *testing.T) {
	if Default().Scaled(1) != Default() {
		t.Fatal("Scaled(1) changed the config")
	}
	if Default().Scaled(0) != Default() {
		t.Fatal("Scaled(0) changed the config")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.ROBSize = -1 },
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.RowsPerBank = 0 },
		func(c *Config) { c.RowBytes = 100 }, // not a line multiple
		func(c *Config) { c.Banks = 12 },
		func(c *Config) { c.RowsPerBank = 100_000 },
		func(c *Config) { c.RowBytes = 3 * c.LineBytes }, // 3 lines per row
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.LineBytes, c.RowBytes = 48, 48*128 },
		func(c *Config) { c.LLCBytes = 0 },
		func(c *Config) { c.TRC = 0 },
		func(c *Config) { c.TRFC = c.TREFI + 1 },
		func(c *Config) { c.EpochCycles = 0 },
		func(c *Config) { c.RowHammerThreshold = 0 },
	}
	for i, m := range mutations {
		cfg := Default()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestStringMentionsKeyFacts(t *testing.T) {
	s := Default().String()
	for _, want := range []string{"8-core", "8MB", "T_RH=4800"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestTotalRows(t *testing.T) {
	if got := Default().TotalRows(); got != 2*1*16*(128<<10) {
		t.Fatalf("TotalRows = %d", got)
	}
}
