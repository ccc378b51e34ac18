package dram

import (
	"testing"

	"repro/internal/config"
)

// benchRows keeps the benchmarks' working set small against a bank.
const benchRows = 4096

// splitmixNext steps the trace generator's PRNG, so the address stream
// is pinned without pulling rand into the timed loop.
func splitmixNext(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func BenchmarkActivate(b *testing.B) {
	sys := MustNew(config.Default())
	id := BankID{}
	s := uint64(0xBE)
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		row := int(splitmixNext(&s) % benchRows)
		sys.Activate(id, row, now)
		now += 22
	}
}

func BenchmarkRowContent(b *testing.B) {
	sys := MustNew(config.Default())
	id := BankID{}
	s := uint64(0xBE)
	for i := 0; i < benchRows/2; i++ {
		sys.SetRowContent(id, i, uint64(i)|1<<63)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := int(splitmixNext(&s) % benchRows)
		contentSink ^= sys.RowContent(id, row)
	}
}

// contentSink keeps BenchmarkRowContent's reads from being optimized away.
var contentSink uint64
