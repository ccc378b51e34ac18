package memctrl

import (
	"math/rand"
	"testing"

	"repro/internal/dram"
)

// bankChannelBlockMit charges bank and channel time on every activation.
type bankChannelBlockMit struct{ None }

func (bankChannelBlockMit) OnActivate(dram.BankID, int, int, int64) ActResult {
	return ActResult{BankBlock: 50, ChannelBlock: 100}
}

// TestAccessAllocFree pins the controller's single activation path at 0
// allocs/op: row hits, misses, conflicts, refresh windows and epoch
// boundaries, with a mitigation that never blocks and one that blocks
// the bank and the channel on every activation.
func TestAccessAllocFree(t *testing.T) {
	for _, c := range []struct {
		name string
		mit  Mitigation
	}{
		{"None", None{}},
		{"blocking", bankChannelBlockMit{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.EpochCycles = int64(cfg.TREFI) * 4
			sys := dram.MustNew(cfg)
			ctl := New(sys, c.mit)
			var lines []uint64
			for b := 0; b < 4; b++ {
				for r := 1; r <= 3; r++ {
					lines = append(lines, sys.Encode(dram.Address{BankID: dram.BankID{Bank: b}, Row: r}))
				}
			}
			rng := rand.New(rand.NewSource(1))
			now := int64(0)
			access := func() {
				ctl.Access(lines[rng.Intn(len(lines))], rng.Intn(4) == 0, now)
				now += rng.Int63n(int64(cfg.TRC))
			}
			// Warm-up: materialize DRAM's per-bank state.
			for i := 0; i < 400; i++ {
				access()
			}
			if avg := testing.AllocsPerRun(4000, access); avg != 0 {
				t.Fatalf("Access allocates %.2f allocs/op, want 0", avg)
			}
			if ctl.Stats().Epochs == 0 {
				t.Fatal("the loop crossed no epoch boundary")
			}
		})
	}
}
