package memctrl

import (
	"math/rand"
	"testing"

	"repro/internal/dram"
)

// actRecord is one activation as a mitigation or a DRAM listener saw it.
type actRecord struct {
	bank    dram.BankID
	row     int // logical row (the mitigation's view only)
	physRow int
	now     int64
}

// recordingMit remaps every row through a fixed bijection, delays the
// activations of odd rows, and records each OnActivate call.
type recordingMit struct {
	None
	mask int
	acts []actRecord
}

func (m *recordingMit) Remap(_ dram.BankID, row int) int { return (row*5 + 3) & m.mask }

func (m *recordingMit) ActivateDelay(_ dram.BankID, row int, _ int64) int64 { return int64(row&1) * 7 }

func (m *recordingMit) OnActivate(id dram.BankID, row, physRow int, now int64) ActResult {
	m.acts = append(m.acts, actRecord{bank: id, row: row, physRow: physRow, now: now})
	return ActResult{}
}

// TestEveryActivationReachesMitigationOnce drives random traffic at two
// banks over three rows, under the closed-page policy and under open
// pages with gaps long enough for refreshes to close rows: the two ways
// one row is activated twice in a bank with no other row in between.
// Every ACT the DRAM sees must reach OnActivate exactly once, in the
// same order, with its own bank, physical row and timestamp.
func TestEveryActivationReachesMitigationOnce(t *testing.T) {
	for _, closed := range []bool{true, false} {
		name := "open-page"
		if closed {
			name = "closed-page"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.ClosedPage = closed
			sys := dram.MustNew(cfg)
			var dramActs []actRecord
			sys.Subscribe(listenerFunc(func(id dram.BankID, row int, now int64) {
				dramActs = append(dramActs, actRecord{bank: id, physRow: row, now: now})
			}))
			mit := &recordingMit{mask: cfg.RowsPerBank - 1}
			c := New(sys, mit)

			type access struct {
				bank dram.BankID
				row  int
			}
			var accesses []access
			rng := rand.New(rand.NewSource(7))
			now := int64(cfg.TRFC) + 10
			for i := 0; i < 4000; i++ {
				a := access{bank: dram.BankID{Bank: rng.Intn(2)}, row: 1 + rng.Intn(3)}
				accesses = append(accesses, a)
				c.Access(sys.Encode(dram.Address{BankID: a.bank, Row: a.row}), rng.Intn(4) == 0, now)
				if rng.Intn(4) == 0 {
					now += rng.Int63n(2 * int64(cfg.TREFI))
				} else {
					now += rng.Int63n(int64(cfg.TRC))
				}
			}

			st := c.Stats()
			if acts := int(st.RowMisses + st.RowConflicts); len(dramActs) != acts || len(mit.acts) != acts {
				t.Fatalf("controller made %d ACTs; DRAM saw %d, OnActivate %d", acts, len(dramActs), len(mit.acts))
			}
			if closed && len(mit.acts) != len(accesses) {
				t.Fatalf("closed page: %d ACTs for %d accesses", len(mit.acts), len(accesses))
			}
			last := map[dram.BankID]actRecord{}
			reopened := 0
			for i, got := range mit.acts {
				want := dramActs[i]
				if got.bank != want.bank || got.physRow != want.physRow || got.now != want.now {
					t.Fatalf("ACT %d: OnActivate(%+v, phys %d, at %d), DRAM activated %+v row %d at %d",
						i, got.bank, got.physRow, got.now, want.bank, want.physRow, want.now)
				}
				if got.physRow != mit.Remap(got.bank, got.row) {
					t.Fatalf("ACT %d: physical row %d is not logical row %d's", i, got.physRow, got.row)
				}
				if closed && (got.bank != accesses[i].bank || got.row != accesses[i].row) {
					t.Fatalf("ACT %d: reported %+v row %d, access was %+v row %d",
						i, got.bank, got.row, accesses[i].bank, accesses[i].row)
				}
				if prev, ok := last[got.bank]; ok {
					if got.now < prev.now {
						t.Fatalf("ACT %d: bank %+v activated at %d, before %d", i, got.bank, got.now, prev.now)
					}
					if got.physRow == prev.physRow {
						reopened++
					}
				}
				last[got.bank] = got
			}
			if reopened < 100 {
				t.Fatalf("only %d back-to-back same-row ACTs; the traffic must exercise them", reopened)
			}
		})
	}
}
