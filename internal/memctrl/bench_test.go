package memctrl_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
)

// BenchmarkAccessRRS times one full controller access — remap, timing,
// activation and the RRS tracker — over random lines of a 1/32-scale
// system.
func BenchmarkAccessRRS(b *testing.B) {
	cfg := config.Default().Scaled(32)
	sys := dram.MustNew(cfg)
	rrs, err := core.New(sys, core.ScaledParams(cfg))
	if err != nil {
		b.Fatal(err)
	}
	ctl := memctrl.New(sys, rrs)
	s := uint64(0xBE)
	lines := uint64(cfg.MemoryBytes()) / uint64(cfg.LineBytes)
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		line := splitmixNext(&s) % lines
		done := ctl.Access(line, i%16 == 0, now)
		if done > now {
			now = done
		}
	}
}

// splitmixNext steps the trace generator's PRNG, so the address stream
// is pinned without pulling rand into the timed loop.
func splitmixNext(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
