package dram

import (
	"math/rand"
	"slices"
	"testing"
)

// refCounts is the unbatched reference: one map increment per ACT.
type refCounts map[int]int

func (r refCounts) atLeast(n int) int {
	c := 0
	for _, v := range r {
		if v >= n {
			c++
		}
	}
	return c
}

// checkCounts compares the ACT-threshold statistic at several
// thresholds, then every row the reference knows, plus a few it does
// not. The statistic goes first so that it, too, must fold the log.
func checkCounts(t *testing.T, s *System, id BankID, ref refCounts) {
	t.Helper()
	for _, n := range []int{1, 2, 3, 5, 8} {
		if got, want := s.RowsWithActsAtLeast(id, n), ref.atLeast(n); got != want {
			t.Fatalf("RowsWithActsAtLeast(%d) = %d, want %d", n, got, want)
		}
	}
	for row, want := range ref {
		if got := s.ActCount(id, row); got != want {
			t.Fatalf("ActCount(%d) = %d, want %d", row, got, want)
		}
	}
	for _, row := range []int{0, 511, s.Config().RowsPerBank - 1} {
		if got := s.ActCount(id, row); got != ref[row] {
			t.Fatalf("ActCount(%d) = %d, want %d", row, got, ref[row])
		}
	}
}

// TestActLogBoundaries hammers one row up to one ACT either side of a
// full log: the counts read back exactly whether the last ACTs are
// folded or still logged, through either query first.
func TestActLogBoundaries(t *testing.T) {
	for _, n := range []int{actLogSize - 1, actLogSize, actLogSize + 1} {
		s := MustNew(testConfig())
		id := BankID{Bank: 1}
		for i := 0; i < n; i++ {
			s.Activate(id, 7, int64(i))
		}
		if want := n % actLogSize; n > actLogSize && len(s.BankState(id).log) != want {
			t.Fatalf("n=%d: %d ACTs logged before the query, want %d", n, len(s.BankState(id).log), want)
		}
		if got := s.RowsWithActsAtLeast(id, n); got != 1 {
			t.Fatalf("n=%d: RowsWithActsAtLeast(n) = %d, want 1", n, got)
		}
		if got := s.RowsWithActsAtLeast(id, n+1); got != 0 {
			t.Fatalf("n=%d: RowsWithActsAtLeast(n+1) = %d, want 0", n, got)
		}
		s.Activate(id, 7, int64(n))
		if got := s.ActCount(id, 7); got != n+1 {
			t.Fatalf("n=%d: ActCount after one more ACT = %d, want %d", n, got, n+1)
		}
	}
}

// TestActLogScatteredRowsMidEpoch spreads ACTs over the bank across
// several log fills and queries at random points mid-epoch, then across
// an epoch reset, against an unbatched reference.
func TestActLogScatteredRowsMidEpoch(t *testing.T) {
	s := MustNew(testConfig())
	id := BankID{Channel: 1, Bank: 5}
	rng := rand.New(rand.NewSource(3))
	ref := refCounts{}
	rows := s.Config().RowsPerBank
	for i := 0; i < 3*actLogSize+123; i++ {
		row := rng.Intn(rows)
		s.Activate(id, row, int64(i))
		ref[row]++
		if rng.Intn(1500) == 0 {
			checkCounts(t, s, id, ref)
		}
		if i == 2*actLogSize+17 {
			s.ResetEpoch()
			ref = refCounts{}
		}
	}
	checkCounts(t, s, id, ref)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestActLogSwapAndCycleCounts interleaves swaps and 4-row cycles with
// plain ACTs past a log fill: each moved row gains exactly two ACTs.
func TestActLogSwapAndCycleCounts(t *testing.T) {
	s := MustNew(testConfig())
	id := BankID{Bank: 2}
	ref := refCounts{}
	for i := 0; i < actLogSize+100; i++ {
		row := (i * 37) % 900
		s.Activate(id, row, int64(i))
		ref[row]++
		switch i % 97 {
		case 0:
			x, y := i%1000, (i+500)%1000
			s.SwapRows(id, x, y, int64(i))
			ref[x] += 2
			ref[y] += 2
		case 50:
			cyc := []int{i % 1000, (i + 1) % 1000, (i + 2) % 1000, (i + 3) % 1000}
			s.CycleRows(id, cyc, int64(i))
			for _, r := range cyc {
				ref[r] += 2
			}
		}
	}
	checkCounts(t, s, id, ref)
}

// TestResetEpochDropsUnfoldedLog resets with ACTs still in the log and
// some already folded: every count reads zero afterwards.
func TestResetEpochDropsUnfoldedLog(t *testing.T) {
	s := MustNew(testConfig())
	id := BankID{Rank: 1, Bank: 4}
	for i := 0; i < actLogSize+10; i++ {
		s.Activate(id, i%300, int64(i))
	}
	if len(s.BankState(id).log) == 0 || len(s.BankState(id).dirty) == 0 {
		t.Fatal("setup must leave both folded and unfolded ACTs")
	}
	s.ResetEpoch()
	checkCounts(t, s, id, refCounts{})
	for r := 0; r < 300; r++ {
		if got := s.ActCount(id, r); got != 0 {
			t.Fatalf("after reset, ActCount(%d) = %d", r, got)
		}
	}
}

// TestCheckInvariantsDoesNotFold pins that the structural check reads
// the log in place and allocates nothing: a paranoid run must fold, and
// give a bank its per-row counts, exactly when a plain one does.
func TestCheckInvariantsDoesNotFold(t *testing.T) {
	s := MustNew(testConfig())
	id := BankID{}
	for r := 0; r < 10; r++ {
		s.Activate(id, r, 0)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("CheckInvariants allocates %.2f times per run, want 0", avg)
	}
	if b := s.BankState(id); len(b.log) != 10 || len(b.dirty) != 0 || b.HasCounts() {
		t.Fatalf("check folded the log: %d logged, %d dirty, counts %v", len(b.log), len(b.dirty), b.HasCounts())
	}
}

// TestEpochCountsMatchMapCount is the differential test of the log-only
// state: over random streams of every boundary length it compares
// RowsWithActsAtLeast and ActCount with a map count. Bank a has its
// counts read per row, which materializes them; bank b is only ever
// asked for the statistic, so it stays log-only until its log fills.
// Each statistic is read twice, and the tally must read zero after
// every read, across an epoch reset too.
func TestEpochCountsMatchMapCount(t *testing.T) {
	thresholds := []int{0, 1, 2, 800}
	for _, length := range []int{0, 1, actLogSize - 1, actLogSize, actLogSize + 1, 3 * actLogSize} {
		s := MustNew(testConfig())
		rng := rand.New(rand.NewSource(int64(length)))
		a, b := BankID{Bank: 1}, BankID{Channel: 1, Bank: 6}
		compare := func(phase string, id BankID, ref refCounts) {
			t.Helper()
			for _, n := range thresholds {
				want := ref.atLeast(max(n, 1))
				for range 2 {
					if got := s.RowsWithActsAtLeast(id, n); got != want {
						t.Fatalf("length %d, %s, %v: RowsWithActsAtLeast(%d) = %d, want %d", length, phase, id, n, got, want)
					}
					if i := slices.IndexFunc(s.tally, func(c uint16) bool { return c != 0 }); i >= 0 {
						t.Fatalf("length %d, %s: tally[%d] = %d after a read, want 0", length, phase, i, s.tally[i])
					}
				}
			}
		}
		for epoch := 0; epoch < 2; epoch++ {
			refA, refB := refCounts{}, refCounts{}
			for i := 0; i < length; i++ {
				// Half the ACTs go to two hot rows, so 800 is reached
				// once a bank logs about 1600 ACTs.
				for _, bank := range []struct {
					id  BankID
					ref refCounts
				}{{a, refA}, {b, refB}} {
					row := rng.Intn(s.Config().RowsPerBank)
					if rng.Intn(2) == 0 {
						row = 100 + rng.Intn(2)
					}
					s.Activate(bank.id, row, int64(i))
					bank.ref[row]++
				}
			}
			if wantDense := epoch > 0 || length > actLogSize; s.BankState(a).HasCounts() != wantDense {
				t.Fatalf("length %d, epoch %d: bank a has counts = %v before its reads, want %v",
					length, epoch, !wantDense, wantDense)
			}
			if s.BankState(b).HasCounts() != (length > actLogSize) {
				t.Fatalf("length %d, epoch %d: bank b has counts = %v, want %v",
					length, epoch, s.BankState(b).HasCounts(), length > actLogSize)
			}
			compare("before ActCount", a, refA)
			compare("log-only reads", b, refB)
			checkCounts(t, s, a, refA)
			if !s.BankState(a).HasCounts() {
				t.Fatalf("length %d: ActCount left bank a without counts", length)
			}
			compare("after ActCount", a, refA)
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			s.ResetEpoch()
			compare("after reset", a, refCounts{})
			compare("after reset", b, refCounts{})
		}
	}
}
