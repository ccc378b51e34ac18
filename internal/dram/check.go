package dram

import (
	"repro/internal/invariant"
)

// EnableParanoid attaches the invariant engine: every subsequent
// SwapRows/CycleRows re-reads the involved rows after the transfer and
// reports a "dram/swap-conservation" violation on any lost or duplicated
// content. The per-swap check tally is registered with eng.
func (s *System) EnableParanoid(eng *invariant.Engine) {
	s.eng = eng
	eng.RegisterCounter("dram/swap-conservation", func() int64 { return s.swapChecks })
}

// CheckInvariants verifies the system's redundant bank state and returns
// a typed *invariant.Violation for the first breach:
//
//   - dram/structure: every dirty-list entry names a distinct row with a
//     nonzero activation count (the epoch-reset fast path clears exactly
//     the dirty rows, so a zero-count or duplicated entry means counts
//     would leak across epochs); the content map holds only rows of
//     the bank, so no swap wrote a tag past RowsPerBank.
//
// Cost is O(dirty + written rows) per bank — never O(RowsPerBank).
func (s *System) CheckInvariants() error {
	for i := range s.banks {
		b := &s.banks[i]
		seen := make(map[int32]struct{}, len(b.dirty))
		for _, r := range b.dirty {
			if int(r) >= len(b.acts) {
				return invariant.Violatedf("dram/structure",
					"bank %d: dirty list names row %d beyond the bank's %d rows", i, r, len(b.acts))
			}
			if b.acts[r] == 0 {
				return invariant.Violatedf("dram/structure",
					"bank %d: dirty list names row %d, which has zero activations", i, r)
			}
			if _, dup := seen[r]; dup {
				return invariant.Violatedf("dram/structure",
					"bank %d: row %d appears twice in the dirty list", i, r)
			}
			seen[r] = struct{}{}
		}
		for r := range b.content {
			if uint(r) >= uint(s.cfg.RowsPerBank) {
				return invariant.Violatedf("dram/structure",
					"bank %d: content map holds row %d beyond the bank's %d rows", i, r, s.cfg.RowsPerBank)
			}
		}
	}
	return nil
}

// --- Test-only state corruption hooks ---
//
// Narrow mutators for the fault-injection suite; never called by
// production code.

// TearNextSwapForTest makes the next SwapRows skip its second write, so
// one row's content is silently lost — the fault the swap-conservation
// check exists to catch.
func (s *System) TearNextSwapForTest() { s.tearNextSwap = true }

// CorruptDirtyForTest appends row to the bank's dirty list without
// touching its activation count.
func (s *System) CorruptDirtyForTest(id BankID, row int) {
	b := s.BankState(id)
	b.dirty = append(b.dirty, int32(row))
}

// CorruptContentForTest plants a content tag for row in the bank's
// content map without checking that the bank has such a row.
func (s *System) CorruptContentForTest(id BankID, row int, v uint64) {
	s.SetRowContent(id, row, v)
}
