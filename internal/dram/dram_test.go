package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func testConfig() config.Config {
	cfg := config.Default()
	cfg.RowsPerBank = 1 << 10 // keep test memory small
	return cfg
}

// divDecode and divEncode are the address layout's mixed-radix form,
// which Decode and Encode computed before they became shifts and masks;
// they are the oracle for every geometry.
func divDecode(cfg config.Config, line uint64) Address {
	linesPerRow := uint64(cfg.RowBytes / cfg.LineBytes)
	col := int(line % linesPerRow)
	line /= linesPerRow
	ch := int(line % uint64(cfg.Channels))
	line /= uint64(cfg.Channels)
	bank := int(line % uint64(cfg.Banks))
	line /= uint64(cfg.Banks)
	rank := int(line % uint64(cfg.Ranks))
	line /= uint64(cfg.Ranks)
	row := int(line % uint64(cfg.RowsPerBank))
	return Address{BankID: BankID{Channel: ch, Rank: rank, Bank: bank}, Row: row, Col: col}
}

func divEncode(cfg config.Config, a Address) uint64 {
	v := uint64(a.Row)
	v = v*uint64(cfg.Ranks) + uint64(a.Rank)
	v = v*uint64(cfg.Banks) + uint64(a.Bank)
	v = v*uint64(cfg.Channels) + uint64(a.Channel)
	return v*uint64(cfg.RowBytes/cfg.LineBytes) + uint64(a.Col)
}

// TestDecodeEncodeRoundTrip checks Decode and Encode against the
// division formula at several power-of-two geometries: every line of the
// address space round-trips, lines beyond it wrap the row as the
// division did, and out-of-range fields carry alike.
func TestDecodeEncodeRoundTrip(t *testing.T) {
	geometries := []func(*config.Config){
		func(*config.Config) {},
		func(c *config.Config) { c.Channels, c.Ranks, c.Banks, c.RowsPerBank = 1, 1, 8, 1<<10 },
		func(c *config.Config) { c.Channels, c.Ranks, c.Banks, c.RowsPerBank, c.RowBytes = 4, 2, 4, 256, 2<<10 },
		func(c *config.Config) { c.Channels, c.Ranks, c.Banks, c.RowsPerBank, c.RowBytes = 1, 1, 1, 1, 64 },
		func(c *config.Config) { c.LineBytes, c.Ranks, c.RowsPerBank = 128, 4, 1<<12 },
	}
	for i, geo := range geometries {
		cfg := config.Default()
		geo(&cfg)
		s := MustNew(cfg)
		lines := uint64(cfg.TotalRows()) * uint64(cfg.RowBytes/cfg.LineBytes)
		f := func(raw uint64, fields [5]int16) bool {
			line := raw % lines
			a := s.Decode(line)
			if a != divDecode(cfg, line) || s.Encode(a) != line || s.Decode(raw) != divDecode(cfg, raw) {
				return false
			}
			wide := Address{
				BankID: BankID{Channel: int(fields[0]), Rank: int(fields[1]), Bank: int(fields[2])},
				Row:    int(fields[3]), Col: int(fields[4]),
			}
			return s.Encode(wide) == divEncode(cfg, wide)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
			t.Errorf("geometry %d (%s): %v", i, cfg, err)
		}
		for _, line := range []uint64{0, 1, lines - 1, lines, ^uint64(0)} {
			if got, want := s.Decode(line), divDecode(cfg, line); got != want {
				t.Errorf("geometry %d: Decode(%#x) = %+v, want %+v", i, line, got, want)
			}
		}
	}
}

func TestDecodeConsecutiveLinesShareRow(t *testing.T) {
	s := MustNew(testConfig())
	a0 := s.Decode(0)
	a1 := s.Decode(1)
	if a0.Row != a1.Row || a0.BankID != a1.BankID {
		t.Fatalf("lines 0 and 1 should share a row: %+v vs %+v", a0, a1)
	}
	if a1.Col != a0.Col+1 {
		t.Fatalf("columns not consecutive: %d then %d", a0.Col, a1.Col)
	}
}

func TestDecodeRowCrossingChangesChannel(t *testing.T) {
	s := MustNew(testConfig())
	linesPerRow := uint64(s.Config().RowBytes / s.Config().LineBytes)
	a := s.Decode(linesPerRow - 1)
	b := s.Decode(linesPerRow)
	if a.Channel == b.Channel {
		t.Fatalf("row crossing should switch channel: %+v vs %+v", a, b)
	}
}

func TestDecodeFieldsInRange(t *testing.T) {
	s := MustNew(testConfig())
	cfg := s.Config()
	for line := uint64(0); line < 100000; line += 97 {
		a := s.Decode(line)
		if a.Channel < 0 || a.Channel >= cfg.Channels ||
			a.Rank < 0 || a.Rank >= cfg.Ranks ||
			a.Bank < 0 || a.Bank >= cfg.Banks ||
			a.Row < 0 || a.Row >= cfg.RowsPerBank ||
			a.Col < 0 || a.Col >= cfg.RowBytes/cfg.LineBytes {
			t.Fatalf("decoded address out of range: %+v", a)
		}
	}
}

func TestActivateCountsPerEpoch(t *testing.T) {
	s := MustNew(testConfig())
	id := BankID{Channel: 0, Rank: 0, Bank: 3}
	for i := 0; i < 5; i++ {
		s.Activate(id, 7, int64(i))
	}
	s.Activate(id, 9, 10)
	if got := s.ActCount(id, 7); got != 5 {
		t.Fatalf("ActCount(7) = %d, want 5", got)
	}
	if got := s.ActCount(id, 9); got != 1 {
		t.Fatalf("ActCount(9) = %d, want 1", got)
	}
	if got := s.RowsWithActsAtLeast(id, 2); got != 1 {
		t.Fatalf("RowsWithActsAtLeast(2) = %d, want 1", got)
	}
	if got := s.RowsWithActsAtLeast(id, 1); got != 2 {
		t.Fatalf("RowsWithActsAtLeast(1) = %d, want 2", got)
	}
	s.ResetEpoch()
	if got := s.ActCount(id, 7); got != 0 {
		t.Fatalf("after reset, ActCount = %d", got)
	}
	if got := s.RowsWithActsAtLeast(id, 1); got != 0 {
		t.Fatalf("after reset, RowsWithActsAtLeast(1) = %d", got)
	}
}

func TestActivateOpensRow(t *testing.T) {
	s := MustNew(testConfig())
	id := BankID{}
	s.Activate(id, 42, 0)
	if s.BankState(id).OpenRow != 42 {
		t.Fatalf("OpenRow = %d, want 42", s.BankState(id).OpenRow)
	}
}

type recordingListener struct {
	events []struct {
		id  BankID
		row int
		now int64
	}
}

func (r *recordingListener) OnActivate(id BankID, row int, now int64) {
	r.events = append(r.events, struct {
		id  BankID
		row int
		now int64
	}{id, row, now})
}

func TestSubscribeNotifiesActivations(t *testing.T) {
	s := MustNew(testConfig())
	l := &recordingListener{}
	s.Subscribe(l)
	id := BankID{Channel: 1, Bank: 2}
	s.Activate(id, 11, 99)
	if len(l.events) != 1 {
		t.Fatalf("got %d events, want 1", len(l.events))
	}
	e := l.events[0]
	if e.id != id || e.row != 11 || e.now != 99 {
		t.Fatalf("unexpected event %+v", e)
	}
}

func TestRowContentIdentityDefault(t *testing.T) {
	s := MustNew(testConfig())
	a := BankID{Channel: 1, Rank: 0, Bank: 5}
	b := BankID{Channel: 0, Rank: 0, Bank: 5}
	if s.RowContent(a, 10) == s.RowContent(b, 10) {
		t.Fatal("identity tags must differ across banks")
	}
	if s.RowContent(a, 10) == s.RowContent(a, 11) {
		t.Fatal("identity tags must differ across rows")
	}
}

func TestSwapRowsMovesContent(t *testing.T) {
	s := MustNew(testConfig())
	id := BankID{Bank: 1}
	s.SetRowContent(id, 5, 0xAAAA)
	s.SetRowContent(id, 9, 0xBBBB)
	s.SwapRows(id, 5, 9, 0)
	if got := s.RowContent(id, 5); got != 0xBBBB {
		t.Fatalf("row 5 content = %#x, want 0xBBBB", got)
	}
	if got := s.RowContent(id, 9); got != 0xAAAA {
		t.Fatalf("row 9 content = %#x, want 0xAAAA", got)
	}
}

func TestSwapRowsWithUntouchedRows(t *testing.T) {
	s := MustNew(testConfig())
	id := BankID{Bank: 2}
	want5, want9 := s.RowContent(id, 5), s.RowContent(id, 9)
	s.SwapRows(id, 5, 9, 0)
	if s.RowContent(id, 5) != want9 || s.RowContent(id, 9) != want5 {
		t.Fatal("identity tags did not swap")
	}
}

func TestSwapRowsActivatesBothRowsTwice(t *testing.T) {
	s := MustNew(testConfig())
	id := BankID{}
	s.SwapRows(id, 3, 4, 0)
	if got := s.ActCount(id, 3); got != 2 {
		t.Fatalf("row 3 activations = %d, want 2", got)
	}
	if got := s.ActCount(id, 4); got != 2 {
		t.Fatalf("row 4 activations = %d, want 2", got)
	}
}

func TestSwapRowsClosesRowBuffer(t *testing.T) {
	s := MustNew(testConfig())
	id := BankID{}
	s.Activate(id, 7, 0)
	s.SwapRows(id, 3, 4, 1)
	if s.BankState(id).OpenRow != NoRow {
		t.Fatalf("row buffer open (%d) after swap", s.BankState(id).OpenRow)
	}
}

func TestSkipRefresh(t *testing.T) {
	cfg := testConfig()
	s := MustNew(cfg)
	trfc, trefi := int64(cfg.TRFC), int64(cfg.TREFI)
	// Time inside the refresh window is pushed to its end.
	if got := s.SkipRefresh(0); got != trfc {
		t.Fatalf("SkipRefresh(0) = %d, want %d", got, trfc)
	}
	if got := s.SkipRefresh(trfc + 1); got != trfc+1 {
		t.Fatalf("SkipRefresh outside window moved: %d", got)
	}
	if got := s.SkipRefresh(trefi + 2); got != trefi+trfc {
		t.Fatalf("SkipRefresh in second window = %d, want %d", got, trefi+trfc)
	}
}

// TestRefreshWindowMatchesDivision walks times that stay in a tREFI
// window, cross its edges, leave it backwards and forwards and re-enter
// it, and checks the cached window and SkipRefresh against t / tREFI.
func TestRefreshWindowMatchesDivision(t *testing.T) {
	cfg := testConfig()
	s := MustNew(cfg)
	trfc, trefi := int64(cfg.TRFC), int64(cfg.TREFI)
	var times []int64
	for _, k := range []int64{0, 1, 2, 5, 1, 0, 7, 7, 3, 100, -1, 2, -3, 0} {
		for _, d := range []int64{-1, 0, 1, trfc - 1, trfc, trefi / 2, trefi - 1} {
			times = append(times, k*trefi+d)
		}
	}
	for _, tm := range times {
		slot, start := s.RefreshWindow(tm)
		wantSlot := tm / trefi
		if slot != wantSlot || start != wantSlot*trefi {
			t.Fatalf("RefreshWindow(%d) = (%d, %d), want (%d, %d)", tm, slot, start, wantSlot, wantSlot*trefi)
		}
		want := tm
		if tm < wantSlot*trefi+trfc {
			want = wantSlot*trefi + trfc
		}
		if got := s.SkipRefresh(tm); got != want {
			t.Fatalf("SkipRefresh(%d) = %d, want %d", tm, got, want)
		}
	}
}

func TestReserveBusSerializes(t *testing.T) {
	cfg := testConfig()
	s := MustNew(cfg)
	t0 := s.ReserveBus(0, 100)
	t1 := s.ReserveBus(0, 100)
	if t0 != 100 {
		t.Fatalf("first reservation at %d, want 100", t0)
	}
	if t1 != 100+int64(cfg.TBurst) {
		t.Fatalf("second reservation at %d, want %d", t1, 100+int64(cfg.TBurst))
	}
	// Different channel unaffected.
	if got := s.ReserveBus(1, 100); got != 100 {
		t.Fatalf("other channel reservation at %d, want 100", got)
	}
}

func TestBlockChannelMonotone(t *testing.T) {
	s := MustNew(testConfig())
	s.BlockChannel(0, 500)
	s.BlockChannel(0, 300) // must not shrink
	if got := s.ChannelBlockedUntil(0); got != 500 {
		t.Fatalf("blocked until %d, want 500", got)
	}
	if got := s.ChannelBlockedUntil(1); got != 0 {
		t.Fatalf("channel 1 blocked until %d, want 0", got)
	}
}

func TestEachBankVisitsAll(t *testing.T) {
	cfg := testConfig()
	s := MustNew(cfg)
	seen := map[BankID]bool{}
	s.EachBank(func(id BankID, b *Bank) {
		if b == nil {
			t.Fatal("nil bank state")
		}
		seen[id] = true
	})
	if len(seen) != cfg.Channels*cfg.Ranks*cfg.Banks {
		t.Fatalf("visited %d banks, want %d", len(seen), cfg.Channels*cfg.Ranks*cfg.Banks)
	}
}

func TestBankIDString(t *testing.T) {
	id := BankID{Channel: 1, Rank: 0, Bank: 7}
	if got := id.String(); got != "ch1.rk0.bk7" {
		t.Fatalf("String() = %q", got)
	}
}
