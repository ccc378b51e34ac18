// Package config holds the simulated system configuration.
//
// The defaults mirror Table 2 of the RRS paper (ASPLOS 2022): an 8-core
// 3.2 GHz out-of-order CPU with an 8 MB shared LLC in front of a 2-channel
// DDR4-3200 memory system with 16 banks per rank and 128K rows of 8 KB per
// bank. All timing values are kept in memory-bus cycles (1.6 GHz), the
// granularity the memory controller schedules at.
package config

import "fmt"

// Timing and structural constants for the default DDR4-3200 system.
const (
	// BusGHz is the memory bus clock (DDR transfers at 2x this rate).
	BusGHz = 1.6
	// CPUGHz is the core clock.
	CPUGHz = 3.2
	// CPUCyclesPerBusCycle converts bus cycles to CPU cycles.
	CPUCyclesPerBusCycle = CPUGHz / BusGHz
)

// Config describes one simulated system. The zero value is not useful;
// construct with Default and mutate, or use the With* helpers.
//
// LineBytes, lines per row (RowBytes/LineBytes), Channels, Ranks, Banks
// and RowsPerBank must be powers of two, as in every DDR geometry: the
// DRAM model decodes an address with shifts and masks (Validate).
type Config struct {
	// Cores is the number of trace-driven cores.
	Cores int
	// ROBSize is the per-core reorder-buffer capacity in instructions.
	ROBSize int
	// FetchWidth is instructions fetched (and retired) per CPU cycle.
	FetchWidth int

	// LLCBytes is the shared last-level cache capacity.
	LLCBytes int
	// LLCWays is the LLC associativity.
	LLCWays int
	// LineBytes is the cache line (and DRAM burst) size.
	LineBytes int

	// Channels, Ranks and Banks describe the DRAM topology. Ranks is per
	// channel, Banks per rank.
	Channels int
	Ranks    int
	Banks    int
	// RowsPerBank is the number of DRAM rows in each bank.
	RowsPerBank int
	// RowBytes is the size of one DRAM row (the unit RRS swaps).
	RowBytes int

	// DRAM timing in memory-bus cycles (1.6 GHz => 1 cycle = 0.625 ns).
	TRCD   int // ACT to column command
	TRP    int // precharge latency
	TCAS   int // column command to data
	TRC    int // ACT to ACT, same bank
	TRFC   int // refresh cycle time
	TREFI  int // refresh interval
	TBurst int // data-bus cycles occupied by one line transfer

	// EpochCycles is the refresh window (64 ms) in bus cycles; this is the
	// tracker reset period for RRS ("Epoch" in the paper).
	EpochCycles int64

	// RowHammerThreshold is T_RH: activations on one row within an epoch
	// that can induce a bit flip in a neighbouring row.
	RowHammerThreshold int

	// RITLatencyCPUCycles is added to every memory access for the RIT
	// lookup (the paper uses 4 CPU cycles).
	RITLatencyCPUCycles int

	// ClosedPage selects a closed-page row-buffer policy: the controller
	// precharges after every column access, trading row-buffer hits for
	// faster conflict handling. The paper's USIMM baseline keeps rows
	// open (the default here).
	ClosedPage bool
}

// nanoseconds -> bus cycles for the default 1.6 GHz bus.
func nsToBusCycles(ns float64) int {
	return int(ns*BusGHz + 0.5)
}

// Default returns the paper's Table 2 configuration.
func Default() Config {
	return Config{
		Cores:      8,
		ROBSize:    192,
		FetchWidth: 4,

		LLCBytes:  8 << 20,
		LLCWays:   16,
		LineBytes: 64,

		Channels:    2,
		Ranks:       1,
		Banks:       16,
		RowsPerBank: 128 << 10,
		RowBytes:    8 << 10,

		TRCD:   nsToBusCycles(14),   // 14 ns
		TRP:    nsToBusCycles(14),   // 14 ns
		TCAS:   nsToBusCycles(14),   // 14 ns
		TRC:    nsToBusCycles(45),   // 45 ns
		TRFC:   nsToBusCycles(350),  // 350 ns
		TREFI:  nsToBusCycles(7800), // 7.8 us
		TBurst: 4,                   // 64 B line in 4 bus cycles (DDR 3200)

		EpochCycles: int64(64e-3 * BusGHz * 1e9), // 64 ms

		RowHammerThreshold: 4800,

		RITLatencyCPUCycles: 4,
	}
}

// Scaled returns a copy of c with the epoch shrunk by factor (> 1 shrinks).
// The Row Hammer threshold scales with the epoch so that the ratio of
// maximum activations to threshold — and hence structure sizes and the
// security argument — is preserved. Scaling only affects experiment
// runtime, not the shape of results.
func (c Config) Scaled(factor int) Config {
	if factor <= 1 {
		return c
	}
	c.EpochCycles /= int64(factor)
	c.RowHammerThreshold /= factor
	if c.RowHammerThreshold < 6 {
		c.RowHammerThreshold = 6 // keep k=6 swaps representable
	}
	return c
}

// ACTMax returns the maximum number of activations one bank can perform in
// an epoch, discounting the time spent in refresh (the paper's 1.36 M for
// the default configuration: 64 ms x (1 - tRFC/tREFI) / 45 ns).
func (c Config) ACTMax() int {
	available := c.EpochCycles - c.EpochCycles/int64(c.TREFI)*int64(c.TRFC)
	return int(available / int64(c.TRC))
}

// TotalRows returns rows across the whole memory system.
func (c Config) TotalRows() int {
	return c.Channels * c.Ranks * c.Banks * c.RowsPerBank
}

// MemoryBytes returns the total DRAM capacity.
func (c Config) MemoryBytes() int64 {
	return int64(c.TotalRows()) * int64(c.RowBytes)
}

// Validate reports configuration errors that would make a simulation
// meaningless.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("config: Cores must be positive, got %d", c.Cores)
	case c.ROBSize <= 0:
		return fmt.Errorf("config: ROBSize must be positive, got %d", c.ROBSize)
	case c.FetchWidth <= 0:
		return fmt.Errorf("config: FetchWidth must be positive, got %d", c.FetchWidth)
	case c.Channels <= 0 || c.Ranks <= 0 || c.Banks <= 0:
		return fmt.Errorf("config: topology %dx%dx%d invalid", c.Channels, c.Ranks, c.Banks)
	case c.RowsPerBank <= 0:
		return fmt.Errorf("config: RowsPerBank must be positive, got %d", c.RowsPerBank)
	case !pow2(c.Channels) || !pow2(c.Ranks) || !pow2(c.Banks):
		return fmt.Errorf("config: topology %dx%dx%d must be powers of two", c.Channels, c.Ranks, c.Banks)
	case !pow2(c.RowsPerBank):
		return fmt.Errorf("config: RowsPerBank %d must be a power of two", c.RowsPerBank)
	case !pow2(c.LineBytes):
		return fmt.Errorf("config: LineBytes %d must be a power of two", c.LineBytes)
	case c.RowBytes <= 0 || c.RowBytes%c.LineBytes != 0 || !pow2(c.RowBytes/c.LineBytes):
		return fmt.Errorf("config: RowBytes %d must be a power-of-two multiple of LineBytes %d", c.RowBytes, c.LineBytes)
	case c.LLCBytes <= 0 || c.LLCWays <= 0:
		return fmt.Errorf("config: LLC %dB/%d-way invalid", c.LLCBytes, c.LLCWays)
	case c.TRC <= 0 || c.TRCD <= 0 || c.TRP <= 0 || c.TCAS <= 0:
		return fmt.Errorf("config: DRAM timing must be positive")
	case c.TREFI <= 0 || c.TRFC <= 0 || c.TRFC >= c.TREFI:
		return fmt.Errorf("config: need 0 < TRFC < TREFI, got %d/%d", c.TRFC, c.TREFI)
	case c.EpochCycles <= 0:
		return fmt.Errorf("config: EpochCycles must be positive")
	case c.RowHammerThreshold <= 0:
		return fmt.Errorf("config: RowHammerThreshold must be positive")
	}
	return nil
}

// pow2 reports whether n is a positive power of two.
func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// String summarises the configuration in one line.
func (c Config) String() string {
	return fmt.Sprintf("%d-core, %dMB LLC, %dch x %drank x %dbank x %dK rows, T_RH=%d",
		c.Cores, c.LLCBytes>>20, c.Channels, c.Ranks, c.Banks, c.RowsPerBank>>10,
		c.RowHammerThreshold)
}
