package mitigation

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/invariant"
)

// srsTestParams gives a small deterministic SRS for unit tests.
func srsTestParams() SRSParams {
	p := DefaultSRSParams(testConfig())
	p.SwapThreshold = 8
	return p
}

func TestSRSSwapAtThreshold(t *testing.T) {
	sys := dram.MustNew(testConfig())
	s := NewSRS(sys, srsTestParams())
	id := dram.BankID{}

	now := int64(0)
	for i := 0; i < 7; i++ {
		res := s.OnActivate(id, 100, s.Remap(id, 100), now)
		if res.ChannelBlock != 0 {
			t.Fatalf("swapped before the threshold (act %d)", i)
		}
		now += 72
	}
	res := s.OnActivate(id, 100, s.Remap(id, 100), now)
	if res.ChannelBlock == 0 {
		t.Fatal("no swap at the threshold")
	}
	if res.BankBlock == 0 {
		t.Fatal("no neighbour-refresh cost charged")
	}
	st := s.Stats()
	if st.Swaps != 1 || st.Refreshes != 2 {
		t.Fatalf("stats %+v", st)
	}
	// The trigger refreshed the physical slot's neighbours.
	if sys.ActCount(id, 99) != 1 || sys.ActCount(id, 101) != 1 {
		t.Fatalf("neighbours not refreshed: %d/%d",
			sys.ActCount(id, 99), sys.ActCount(id, 101))
	}
	// The occupant moved: logical 100 now lives elsewhere, and slot 100
	// hosts a different logical row.
	if s.Remap(id, 100) == 100 {
		t.Fatal("logical row 100 still maps to slot 100 after swap")
	}
	if s.Occupant(id, 100) == 100 {
		t.Fatal("slot 100 still hosts logical row 100 after swap")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSRSTracksPhysicalSlot pins the defining difference from RRS: the
// tracker counts the physical slot, so chasing occupants (the juggling
// attack) keeps triggering mitigations instead of resetting the count.
func TestSRSTracksPhysicalSlot(t *testing.T) {
	sys := dram.MustNew(testConfig())
	s := NewSRS(sys, srsTestParams())
	id := dram.BankID{}

	now := int64(0)
	hammerSlot := func(slot, times int) {
		for i := 0; i < times; i++ {
			occ := s.Occupant(id, slot)
			s.OnActivate(id, occ, s.Remap(id, occ), now)
			now += 72
		}
	}
	hammerSlot(100, 8)
	if s.Stats().Swaps != 1 {
		t.Fatalf("swaps = %d after first burst", s.Stats().Swaps)
	}
	// Juggle: hammer whatever now occupies slot 100. A logical-row
	// tracker would start from zero; the slot-keyed tracker fires again
	// after another SwapThreshold activations.
	hammerSlot(100, 8)
	if s.Stats().Swaps != 2 {
		t.Fatalf("swaps = %d after juggling burst, want 2", s.Stats().Swaps)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSRSEpochResetsCountersNotPermutation(t *testing.T) {
	sys := dram.MustNew(testConfig())
	s := NewSRS(sys, srsTestParams())
	id := dram.BankID{}
	for i := 0; i < 8; i++ {
		s.OnActivate(id, 100, s.Remap(id, 100), int64(i*72))
	}
	moved := s.Remap(id, 100)
	if moved == 100 {
		t.Fatal("no swap before epoch")
	}
	s.OnEpoch(1000)
	if s.Remap(id, 100) != moved {
		t.Fatal("epoch reset undid the permutation")
	}
	// Counters restart: seven activations of the new slot must not fire.
	for i := 0; i < 7; i++ {
		if res := s.OnActivate(id, 100, s.Remap(id, 100), int64(2000+i*72)); res.ChannelBlock != 0 {
			t.Fatal("swap fired from stale counters after epoch")
		}
	}
}

func TestSRSParanoidCatalog(t *testing.T) {
	cases := []struct {
		name string
		hurt func(t *testing.T, u *srsUnit)
	}{
		// Row 100's slot swapped during warm-up, so its page exists.
		{"materialized-page", func(_ *testing.T, u *srsUnit) { u.inv.set(100, 7) }},
		// A page the warm-up's few swaps left as the implicit identity in
		// both maps: the corruption materializes it in one map only, and
		// the check must visit it from that side.
		{"fresh-perm-page", func(t *testing.T, u *srsUnit) { freshPage(t, u, u.perm) }},
		{"fresh-inv-page", func(t *testing.T, u *srsUnit) { freshPage(t, u, u.inv) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.RowsPerBank = 64 << 10 // more pages than the warm-up swaps touch
			sys := dram.MustNew(cfg)
			p := DefaultSRSParams(cfg)
			p.SwapThreshold = 8
			s := NewSRS(sys, p)
			eng := invariant.NewEngine()
			s.EnableParanoid(eng)
			id := dram.BankID{}
			for i := 0; i < 64; i++ {
				s.OnActivate(id, 100+i%3, s.Remap(id, 100+i%3), int64(i*72))
			}
			if err := eng.RunAll(); err != nil {
				t.Fatal(err)
			}
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			// Corrupt the permutation: the catalog must latch a violation.
			tc.hurt(t, &s.units[0])
			err := eng.RunAll()
			if v := invariant.AsViolation(err); v == nil || v.Invariant != "srs/permutation" {
				t.Fatalf("corrupted permutation: got %v, want srs/permutation", err)
			}
		})
	}
}

// freshPage maps a row of the first page neither of u's maps has
// materialized to row 9 in m.
func freshPage(t *testing.T, u *srsUnit, m rowMap) {
	t.Helper()
	for pg := range u.perm {
		if u.perm[pg] == nil && u.inv[pg] == nil {
			m.set(pg<<rowPageBits+5, 9)
			return
		}
	}
	t.Fatal("warm-up touched every page")
}

// TestSRSLazyPermutationMatchesDense drives random activation streams
// through SRS and mirrors every swap in a dense reference permutation.
// The paged perm/inv maps must agree with the reference and with each
// other on every row, Occupant must answer from inv, and the DRAM data
// tags (which start in their logical row's slot) must sit where the
// reference says, which checks the reference independently of SRS.
func TestSRSLazyPermutationMatchesDense(t *testing.T) {
	cfg := testConfig()
	rows := cfg.RowsPerBank
	id := dram.BankID{}
	for seed := uint64(1); seed <= 6; seed++ {
		sys := dram.MustNew(cfg)
		p := DefaultSRSParams(cfg)
		p.SwapThreshold, p.Seed = 4, seed
		s := NewSRS(sys, p)
		ref, refInv, tags := make([]int, rows), make([]int, rows), make([]uint64, rows)
		for r := range ref {
			ref[r], refInv[r], tags[r] = r, r, sys.RowContent(id, r)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < 4000; i++ {
			row := rng.Intn(64) * 61 % rows // a hot set spread over every page
			phys := s.Remap(id, row)
			if phys != ref[row] {
				t.Fatalf("seed %d step %d: Remap(%d) = %d, reference %d", seed, i, row, phys, ref[row])
			}
			swaps := s.Stats().Swaps
			s.OnActivate(id, row, phys, int64(i*72))
			if s.Stats().Swaps == swaps {
				continue
			}
			// The slot's occupant moved to a random slot, whose occupant
			// moved into the slot.
			destPhys := s.Remap(id, row)
			dest := refInv[destPhys]
			ref[row], ref[dest] = destPhys, phys
			refInv[phys], refInv[destPhys] = dest, row
		}
		if s.Stats().Swaps < 100 {
			t.Fatalf("seed %d: only %d swaps", seed, s.Stats().Swaps)
		}
		for r := 0; r < rows; r++ {
			if got := s.Remap(id, r); got != ref[r] {
				t.Fatalf("seed %d: Remap(%d) = %d, reference %d", seed, r, got, ref[r])
			}
			if got := s.Occupant(id, r); got != refInv[r] {
				t.Fatalf("seed %d: Occupant(%d) = %d, reference %d", seed, r, got, refInv[r])
			}
			if got := sys.RowContent(id, ref[r]); got != tags[r] {
				t.Fatalf("seed %d: row %d's data %#x is not in its slot %d (holds %#x)",
					seed, r, tags[r], ref[r], got)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRubixBijectionAndDeterminism(t *testing.T) {
	cfg := testConfig()
	a := NewRubix(dram.MustNew(cfg), 0, 42)
	b := NewRubix(dram.MustNew(cfg), 0, 42)
	c := NewRubix(dram.MustNew(cfg), 0, 43)
	id := dram.BankID{}

	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	same, diff := true, false
	for r := 0; r < cfg.RowsPerBank; r++ {
		p := a.Remap(id, r)
		if a.Occupant(id, p) != r {
			t.Fatalf("Occupant(Remap(%d)=%d) = %d", r, p, a.Occupant(id, p))
		}
		if b.Remap(id, r) != p {
			same = false
		}
		if c.Remap(id, r) != p {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different mappings")
	}
	if !diff {
		t.Fatal("different seeds produced identical mappings")
	}
}

// TestRubixPermutationPinned pins the boot-time shuffle at Table 2
// geometry: an FNV-1a digest of every bank's perm (each entry as four
// little-endian bytes, bank by bank) and a few literal entries, computed
// with one scalar PRINCE call per draw, so any change to the generator's
// stream or the shuffle shows here.
func TestRubixPermutationPinned(t *testing.T) {
	cfg := config.Default()
	r := NewRubix(dram.MustNew(cfg), 0, 11)
	h := fnv.New64a()
	var buf [4]byte
	for _, perm := range r.perm {
		for _, p := range perm {
			binary.LittleEndian.PutUint32(buf[:], uint32(p))
			h.Write(buf[:])
		}
	}
	if got, want := h.Sum64(), uint64(0x5280fb230efea361); got != want {
		t.Errorf("perm digest = %#016x, want %#016x", got, want)
	}
	last := cfg.RowsPerBank - 1
	for _, e := range []struct{ bank, row, want int }{
		{0, 0, 115767}, {0, 1, 53719}, {0, last, 18935},
		{17, 12345, 26068}, {31, 0, 16858}, {31, last, 9457},
	} {
		if got := int(r.perm[e.bank][e.row]); got != e.want {
			t.Errorf("perm[%d][%d] = %d, want %d", e.bank, e.row, got, e.want)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNewRubix(b *testing.B) {
	sys := dram.MustNew(config.Default())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewRubix(sys, 0, uint64(i))
	}
}

func TestRubixScramblesAdjacency(t *testing.T) {
	cfg := testConfig()
	r := NewRubix(dram.MustNew(cfg), 0, 1)
	id := dram.BankID{}
	// Count logically adjacent pairs that stay physically adjacent; a
	// uniform permutation leaves ~2 expected such pairs in a 4K-row bank.
	adjacent := 0
	for row := 0; row+1 < cfg.RowsPerBank; row++ {
		d := r.Remap(id, row) - r.Remap(id, row+1)
		if d == 1 || d == -1 {
			adjacent++
		}
	}
	if adjacent > 16 {
		t.Fatalf("%d adjacent pairs survived the scramble", adjacent)
	}
}

func TestRubixRefreshesPhysicalNeighbors(t *testing.T) {
	sys := dram.MustNew(testConfig())
	r := NewRubix(sys, 1.0, 1) // always refresh
	id := dram.BankID{}
	phys := r.Remap(id, 100)
	res := r.OnActivate(id, 100, phys, 0)
	if res.BankBlock == 0 {
		t.Fatal("no refresh cost charged at p=1")
	}
	want := 0
	for _, v := range []int{phys - 1, phys + 1} {
		if v >= 0 && v < sys.Config().RowsPerBank {
			want++
			if sys.ActCount(id, v) != 1 {
				t.Fatalf("physical neighbour %d not refreshed", v)
			}
		}
	}
	if r.Stats().Refreshes != int64(want) {
		t.Fatalf("refreshes = %d, want %d", r.Stats().Refreshes, want)
	}
}

func TestMINTLatchesAndRefreshesAtBoundary(t *testing.T) {
	cfg := testConfig()
	sys := dram.MustNew(cfg)
	m := NewMINT(sys, 1)
	id := dram.BankID{}

	// Hammer row 100 through one full tREFI window: whatever index the
	// sampler picked, it captures row 100.
	trefi := int64(cfg.TREFI)
	now := int64(0)
	for now < trefi {
		m.OnActivate(id, 100, 100, now)
		now += int64(cfg.TRC)
	}
	// First activation of the next window services the latch.
	res := m.OnActivate(id, 200, 200, trefi)
	if res.BankBlock == 0 {
		t.Fatal("no refresh at the window boundary")
	}
	if sys.ActCount(id, 99) != 1 || sys.ActCount(id, 101) != 1 {
		t.Fatalf("sampled row's neighbours not refreshed: %d/%d",
			sys.ActCount(id, 99), sys.ActCount(id, 101))
	}
	if st := m.Stats(); st.Mitigations != 1 || st.Refreshes != 2 {
		t.Fatalf("stats %+v", st)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMINTEpochDropsPendingSample(t *testing.T) {
	cfg := testConfig()
	sys := dram.MustNew(cfg)
	m := NewMINT(sys, 1)
	id := dram.BankID{}
	for now := int64(0); now < int64(cfg.TREFI); now += int64(cfg.TRC) {
		m.OnActivate(id, 100, 100, now)
	}
	m.OnEpoch(int64(cfg.TREFI))
	if res := m.OnActivate(id, 200, 200, int64(cfg.TREFI)); res.BankBlock != 0 {
		t.Fatal("epoch-cleared latch still serviced")
	}
	if m.Stats().Mitigations != 0 {
		t.Fatalf("stats %+v", m.Stats())
	}
}

func TestPrIDEServicesHeadPerWindow(t *testing.T) {
	cfg := testConfig()
	sys := dram.MustNew(cfg)
	q := NewPrIDE(sys, 1.0, 1) // enqueue every activation
	id := dram.BankID{}

	// Two activations in window 0: both enqueue, none serviced yet.
	q.OnActivate(id, 100, 100, 0)
	q.OnActivate(id, 200, 200, int64(cfg.TRC))
	if st := q.Stats(); st.Enqueued != 2 || st.Serviced != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Window 1: the head (row 100) is serviced.
	res := q.OnActivate(id, 300, 300, int64(cfg.TREFI))
	if res.BankBlock == 0 {
		t.Fatal("no service at window boundary")
	}
	if sys.ActCount(id, 99) != 1 || sys.ActCount(id, 101) != 1 {
		t.Fatal("head entry's neighbours not refreshed")
	}
	if sys.ActCount(id, 199) != 0 {
		t.Fatal("serviced more than the head")
	}
	if st := q.Stats(); st.Serviced != 1 {
		t.Fatalf("stats %+v", st)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrIDEOverflowPolicies(t *testing.T) {
	cfg := testConfig()
	fill := func(q *PrIDE) {
		id := dram.BankID{}
		// Same window throughout: no servicing, queue fills then overflows.
		for i := 0; i < prideQueueCap+5; i++ {
			q.OnActivate(id, 100+i, 100+i, int64(i))
		}
	}
	p := NewPrIDE(dram.MustNew(cfg), 1.0, 1)
	fill(p)
	if st := p.Stats(); st.Dropped != 5 || st.Replaced != 0 {
		t.Fatalf("PrIDE stats %+v, want 5 drops", st)
	}
	d := NewDAPPER(dram.MustNew(cfg), 1.0, 1)
	fill(d)
	if st := d.Stats(); st.Replaced != 5 || st.Dropped != 0 {
		t.Fatalf("DAPPER stats %+v, want 5 replacements", st)
	}
	if !d.Replaces() || p.Replaces() {
		t.Fatal("Replaces flags wrong")
	}
}

func TestPrIDEEpochClearsQueue(t *testing.T) {
	cfg := testConfig()
	sys := dram.MustNew(cfg)
	q := NewPrIDE(sys, 1.0, 1)
	id := dram.BankID{}
	q.OnActivate(id, 100, 100, 0)
	q.OnEpoch(100)
	if res := q.OnActivate(id, 300, 300, int64(cfg.TREFI)); res.BankBlock != 0 {
		t.Fatal("epoch-cleared queue still serviced")
	}
}

// TestZooRemapIdentity pins which defenses move rows: only the swap /
// scramble defenses remap, and the trackers are strictly identity.
func TestZooRemapIdentity(t *testing.T) {
	cfg := testConfig()
	id := dram.BankID{}
	m := NewMINT(dram.MustNew(cfg), 1)
	q := NewPrIDE(dram.MustNew(cfg), 0.5, 1)
	for _, row := range []int{0, 100, cfg.RowsPerBank - 1} {
		if m.Remap(id, row) != row || q.Remap(id, row) != row {
			t.Fatalf("tracker defense remapped row %d", row)
		}
	}
}
