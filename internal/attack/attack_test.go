package attack

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
)

// testAlpha2 rescales the distance-2 coupling for the shrunken epoch.
func testAlpha2() float64 { return Alpha2For(ScaleConfig()) }

// Mitigation factories for the defense matrix.
func noDefense(*dram.System) memctrl.Mitigation { return nil }

func grapheneDefense(sys *dram.System) memctrl.Mitigation {
	return mitigation.NewGraphene(sys,
		mitigation.DefaultGrapheneThreshold(sys.Config().RowHammerThreshold), 1, 7)
}

func idealDefense(sys *dram.System) memctrl.Mitigation {
	return mitigation.NewIdeal(sys,
		mitigation.DefaultGrapheneThreshold(sys.Config().RowHammerThreshold))
}

func paraDefense(sys *dram.System) memctrl.Mitigation {
	return mitigation.NewPARA(sys,
		mitigation.DefaultPARAProbability(sys.Config().RowHammerThreshold), 7)
}

func rrsDefense(sys *dram.System) memctrl.Mitigation {
	r, err := core.New(sys, core.DefaultParams(sys.Config()))
	if err != nil {
		panic(err)
	}
	return r
}

func blockhammerDefense(sys *dram.System) memctrl.Mitigation {
	p := mitigation.DefaultBlockHammerParams()
	p.BlacklistThreshold = 60 // scaled with T_RH = 240
	return mitigation.NewBlockHammer(sys, p)
}

// --- Fault model unit tests ---

func TestFaultModelDistanceOneAccumulates(t *testing.T) {
	sys := dram.MustNew(ScaleConfig())
	fm := NewFaultModel(sys, 48, -1)
	id := dram.BankID{}
	for i := 0; i < 10; i++ {
		sys.Activate(id, 100, int64(i))
	}
	if got := fm.Disturbance(id, 99); got != 10 {
		t.Fatalf("disturbance(99) = %v, want 10", got)
	}
	if got := fm.Disturbance(id, 101); got != 10 {
		t.Fatalf("disturbance(101) = %v, want 10", got)
	}
	if got := fm.Disturbance(id, 98); got != 0 {
		t.Fatalf("disturbance(98) = %v with alpha2 disabled", got)
	}
}

func TestFaultModelActivationRestoresOwnRow(t *testing.T) {
	sys := dram.MustNew(ScaleConfig())
	fm := NewFaultModel(sys, 48, -1)
	id := dram.BankID{}
	for i := 0; i < 10; i++ {
		sys.Activate(id, 100, int64(i))
	}
	sys.Activate(id, 99, 11) // victim activated: restored
	if got := fm.Disturbance(id, 99); got != 0 {
		t.Fatalf("disturbance(99) = %v after its own activation", got)
	}
	// But 101 keeps its accumulation.
	if got := fm.Disturbance(id, 101); got != 10 {
		t.Fatalf("disturbance(101) = %v", got)
	}
}

func TestFaultModelDistanceTwoCoupling(t *testing.T) {
	sys := dram.MustNew(ScaleConfig())
	fm := NewFaultModel(sys, 48, 0.01)
	id := dram.BankID{}
	for i := 0; i < 100; i++ {
		sys.Activate(id, 100, int64(i))
	}
	if got := fm.Disturbance(id, 102); got < 0.99 || got > 1.01 {
		t.Fatalf("disturbance(102) = %v, want ~1", got)
	}
}

func TestFaultModelFlipAtThreshold(t *testing.T) {
	sys := dram.MustNew(ScaleConfig())
	fm := NewFaultModel(sys, 48, -1)
	id := dram.BankID{}
	for i := 0; i < 48; i++ {
		sys.Activate(id, 100, int64(i))
	}
	if fm.FlipCount() != 2 { // rows 99 and 101 both flip
		t.Fatalf("flips = %d, want 2", fm.FlipCount())
	}
	flips := fm.Flips()
	rows := map[int]bool{flips[0].Row: true, flips[1].Row: true}
	if !rows[99] || !rows[101] {
		t.Fatalf("unexpected flip rows: %v", flips)
	}
	// Disturbance resets after a flip.
	if got := fm.Disturbance(id, 99); got != 0 {
		t.Fatalf("disturbance after flip = %v", got)
	}
}

func TestFaultModelEpochResetPreventsSlowAccumulation(t *testing.T) {
	sys := dram.MustNew(ScaleConfig())
	fm := NewFaultModel(sys, 48, -1)
	id := dram.BankID{}
	for epoch := 0; epoch < 4; epoch++ {
		for i := 0; i < 30; i++ { // below threshold per epoch
			sys.Activate(id, 100, int64(epoch*100+i))
		}
		sys.ResetEpoch()
	}
	if fm.FlipCount() != 0 {
		t.Fatalf("flips = %d; refresh should prevent cross-epoch buildup", fm.FlipCount())
	}
}

func TestFaultModelEdgeRows(t *testing.T) {
	cfg := ScaleConfig()
	sys := dram.MustNew(cfg)
	fm := NewFaultModel(sys, 48, 0.01)
	id := dram.BankID{}
	// Rows at both edges must not fault on out-of-range neighbours.
	sys.Activate(id, 0, 0)
	sys.Activate(id, cfg.RowsPerBank-1, 1)
	if fm.FlipCount() != 0 {
		t.Fatal("unexpected flips")
	}
}

func TestFaultModelDefaultThresholdFromConfig(t *testing.T) {
	cfg := ScaleConfig()
	sys := dram.MustNew(cfg)
	fm := NewFaultModel(sys, 0, 0)
	if want := DoubleSidedFactor * float64(cfg.RowHammerThreshold); fm.TRH != want {
		t.Fatalf("TRH = %v, want %v", fm.TRH, want)
	}
	if fm.Alpha2 != DefaultAlpha2 {
		t.Fatalf("Alpha2 = %v", fm.Alpha2)
	}
}

// --- Pattern unit tests ---

func TestSingleSidedAlternates(t *testing.T) {
	p := NewSingleSided(100, 4096)
	a, b := p.NextRow(), p.NextRow()
	if a != 100 || b == 100 {
		t.Fatalf("sequence %d,%d", a, b)
	}
	if c := p.NextRow(); c != 100 {
		t.Fatalf("third access %d, want aggressor", c)
	}
}

func TestDoubleSidedSandwichesVictim(t *testing.T) {
	p := NewDoubleSided(100)
	seen := map[int]bool{p.NextRow(): true, p.NextRow(): true}
	if !seen[99] || !seen[101] {
		t.Fatalf("rows %v", seen)
	}
}

func TestHalfDoubleUsesDistanceTwo(t *testing.T) {
	p := NewHalfDouble(100)
	seen := map[int]bool{p.NextRow(): true, p.NextRow(): true}
	if !seen[98] || !seen[102] {
		t.Fatalf("rows %v", seen)
	}
}

func TestManySidedRotates(t *testing.T) {
	p := NewManySided(10, 3)
	got := []int{p.NextRow(), p.NextRow(), p.NextRow(), p.NextRow()}
	want := []int{10, 12, 14, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

func TestRandomChaseSpendsTPerRow(t *testing.T) {
	p := NewRandomChase(8, 4096, 1)
	counts := map[int]int{}
	var order []int
	for i := 0; i < 64; i++ { // 32 aggressor picks interleaved with dummies
		r := p.NextRow()
		if i%2 == 0 { // odd calls are dummies
			counts[r]++
			if len(order) == 0 || order[len(order)-1] != r {
				order = append(order, r)
			}
		}
	}
	if len(order) != 4 {
		t.Fatalf("chased %d rows in 32 aggressor ACTs at T=8, want 4", len(order))
	}
	for _, r := range order {
		if counts[r] != 8 {
			t.Fatalf("row %d activated %d times, want 8", r, counts[r])
		}
	}
}

// --- End-to-end defense matrix (Figure 1 / Table 7) ---

func TestNoDefenseDoubleSidedFlips(t *testing.T) {
	ctl, fm := NewSystem(ScaleConfig(), 0, testAlpha2(), noDefense)
	res := Run(ctl, fm, NewDoubleSided(100), Options{Epochs: 1})
	if res.Defended() {
		t.Fatal("double-sided attack caused no flips without a defense")
	}
	if res.FirstFlipTime < 0 {
		t.Fatal("first flip time unset")
	}
}

func TestNoDefenseSingleSidedFlips(t *testing.T) {
	ctl, fm := NewSystem(ScaleConfig(), 0, testAlpha2(), noDefense)
	res := Run(ctl, fm, NewSingleSided(100, ScaleConfig().RowsPerBank), Options{Epochs: 1})
	if res.Defended() {
		t.Fatal("single-sided attack caused no flips without a defense")
	}
}

func TestGrapheneDefendsClassicPatterns(t *testing.T) {
	for _, mk := range []func() Pattern{
		func() Pattern { return NewSingleSided(100, ScaleConfig().RowsPerBank) },
		func() Pattern { return NewDoubleSided(100) },
		func() Pattern { return NewManySided(100, 8) },
	} {
		p := mk()
		ctl, fm := NewSystem(ScaleConfig(), 0, testAlpha2(), grapheneDefense)
		res := Run(ctl, fm, p, Options{Epochs: 3})
		if !res.Defended() {
			t.Errorf("Graphene failed against %s: %d flips", p.Name(), res.Flips)
		}
	}
}

// TestGrapheneLosesToHalfDouble is the paper's central motivation
// (Figure 1c): the victim-focused mitigation's own refreshes hammer the
// distance-two victim.
func TestGrapheneLosesToHalfDouble(t *testing.T) {
	ctl, fm := NewSystem(ScaleConfig(), 0, testAlpha2(), grapheneDefense)
	res := Run(ctl, fm, NewHalfDouble(100), Options{Epochs: 3})
	if res.Defended() {
		t.Fatal("Half-Double did not defeat victim-focused mitigation")
	}
	// The flipped row is the distance-two victim itself.
	sawVictim := false
	for _, f := range fm.Flips() {
		if f.Row == 100 {
			sawVictim = true
		}
	}
	if !sawVictim {
		t.Fatalf("flips did not hit the distance-2 victim: %v", fm.Flips())
	}
}

func TestIdealVFMLosesToHalfDouble(t *testing.T) {
	// Even idealized (perfect, free) victim-focused tracking loses to
	// Half-Double — Table 7's point.
	ctl, fm := NewSystem(ScaleConfig(), 0, testAlpha2(), idealDefense)
	res := Run(ctl, fm, NewHalfDouble(100), Options{Epochs: 3})
	if res.Defended() {
		t.Fatal("Half-Double did not defeat idealized victim-focused mitigation")
	}
}

func TestIdealVFMDefendsDoubleSided(t *testing.T) {
	ctl, fm := NewSystem(ScaleConfig(), 0, testAlpha2(), idealDefense)
	res := Run(ctl, fm, NewDoubleSided(100), Options{Epochs: 3})
	if !res.Defended() {
		t.Fatalf("ideal VFM failed double-sided: %d flips", res.Flips)
	}
}

func TestRRSDefendsAllPatterns(t *testing.T) {
	cfg := ScaleConfig()
	for _, mk := range []func() Pattern{
		func() Pattern { return NewSingleSided(100, cfg.RowsPerBank) },
		func() Pattern { return NewDoubleSided(100) },
		func() Pattern { return NewHalfDouble(100) },
		func() Pattern { return NewManySided(100, 8) },
		func() Pattern { return NewRandomChase(40, cfg.RowsPerBank, 99) },
	} {
		p := mk()
		ctl, fm := NewSystem(cfg, 0, testAlpha2(), rrsDefense)
		res := Run(ctl, fm, p, Options{Epochs: 3})
		if !res.Defended() {
			t.Errorf("RRS failed against %s: %d flips (first at %d)",
				p.Name(), res.Flips, res.FirstFlipTime)
		}
	}
}

func TestPARADefendsDoubleSided(t *testing.T) {
	ctl, fm := NewSystem(ScaleConfig(), 0, testAlpha2(), paraDefense)
	res := Run(ctl, fm, NewDoubleSided(100), Options{Epochs: 3})
	if !res.Defended() {
		t.Fatalf("PARA failed double-sided: %d flips", res.Flips)
	}
}

func TestBlockHammerDefendsDoubleSided(t *testing.T) {
	ctl, fm := NewSystem(ScaleConfig(), 0, testAlpha2(), blockhammerDefense)
	res := Run(ctl, fm, NewDoubleSided(100), Options{Epochs: 3})
	if !res.Defended() {
		t.Fatalf("BlockHammer failed double-sided: %d flips", res.Flips)
	}
}

// TestDoSComparison reproduces the Section 8.1 denial-of-service analysis:
// under attack, BlockHammer throttles the attacker's activation stream by
// orders of magnitude while RRS costs only a small factor.
func TestDoSComparison(t *testing.T) {
	cfg := ScaleConfig()
	rate := func(mit func(*dram.System) memctrl.Mitigation) float64 {
		ctl, fm := NewSystem(cfg, 0, testAlpha2(), mit)
		res := Run(ctl, fm, NewDoubleSided(100), Options{Epochs: 2})
		return res.AccessRate
	}
	base := rate(noDefense)
	rrs := rate(rrsDefense)
	bh := rate(blockhammerDefense)

	rrsSlow := base / rrs
	bhSlow := base / bh
	if rrsSlow > 5 {
		t.Errorf("RRS slows the attacker %.1fx, want a small factor (~2-3x)", rrsSlow)
	}
	if bhSlow < 8 {
		t.Errorf("BlockHammer slows the attacker only %.1fx, want an order of magnitude", bhSlow)
	}
	if bhSlow < rrsSlow {
		t.Error("BlockHammer throttles less than RRS — DoS comparison inverted")
	}
}

// TestRandomChaseLongRun gives the optimal anti-RRS attacker many epochs;
// the expected time to success at these parameters is astronomically
// larger (Table 4 analysis), so no flips may occur.
func TestRandomChaseLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long attack run skipped in -short")
	}
	cfg := ScaleConfig()
	ctl, fm := NewSystem(cfg, 0, testAlpha2(), rrsDefense)
	res := Run(ctl, fm, NewRandomChase(40, cfg.RowsPerBank, 4242), Options{Epochs: 20})
	if !res.Defended() {
		t.Fatalf("random chase broke RRS in %d epochs: %d flips", 20, res.Flips)
	}
}

func TestRunRespectsMaxAccesses(t *testing.T) {
	ctl, fm := NewSystem(ScaleConfig(), 0, testAlpha2(), noDefense)
	res := Run(ctl, fm, NewDoubleSided(100), Options{Epochs: 10, MaxAccesses: 50})
	if res.Accesses != 50 {
		t.Fatalf("accesses = %d, want 50", res.Accesses)
	}
}

func TestRunStopAtFirstFlip(t *testing.T) {
	ctl, fm := NewSystem(ScaleConfig(), 0, testAlpha2(), noDefense)
	res := Run(ctl, fm, NewDoubleSided(100), Options{Epochs: 10, StopAtFirstFlip: true})
	if res.Flips != 1 {
		t.Fatalf("flips = %d, want exactly 1 with StopAtFirstFlip", res.Flips)
	}
}

// TestAllBankAttackCrushesDutyCycle reproduces the Section 5.3.2 argument:
// attacking every bank multiplies the swap traffic sharing each channel's
// bus, so the per-bank activation rate drops well below the single-bank
// attack's — the all-bank attack is slower, not 16x faster.
func TestAllBankAttackCrushesDutyCycle(t *testing.T) {
	cfg := ScaleConfig()

	single, fm1 := NewSystem(cfg, 0, testAlpha2(), rrsDefense)
	sres := Run(single, fm1, NewDoubleSided(100), Options{Epochs: 2})

	all, fm2 := NewSystem(cfg, 0, testAlpha2(), rrsDefense)
	ares := Run(all, fm2, nil, Options{
		Epochs:     2,
		NewPattern: func() Pattern { return NewDoubleSided(100) },
	})

	nBanks := float64(cfg.Channels * cfg.Ranks * cfg.Banks)
	perBankAll := ares.AccessRate / nBanks
	if perBankAll >= sres.AccessRate {
		t.Fatalf("all-bank per-bank rate %.6f not below single-bank %.6f",
			perBankAll, sres.AccessRate)
	}
	if !sres.Defended() || !ares.Defended() {
		t.Fatal("RRS failed under bank-parallel attack")
	}
}

func TestBlacksmithNonUniformFrequencies(t *testing.T) {
	p := NewBlacksmith(100, 6, 3)
	counts := map[int]int{}
	for i := 0; i < 6000; i++ {
		counts[p.NextRow()]++
	}
	if len(counts) < 4 {
		t.Fatalf("only %d distinct aggressors", len(counts))
	}
	var min, max int
	for _, c := range counts {
		if min == 0 || c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max < 2*min {
		t.Fatalf("frequencies too uniform: min %d max %d", min, max)
	}
}

func TestRRSDefendsBlacksmith(t *testing.T) {
	cfg := ScaleConfig()
	ctl, fm := NewSystem(cfg, 0, testAlpha2(), rrsDefense)
	res := Run(ctl, fm, NewBlacksmith(100, 8, 7), Options{Epochs: 3})
	if !res.Defended() {
		t.Fatalf("Blacksmith-style pattern broke RRS: %d flips", res.Flips)
	}
}

func TestGrapheneDefendsBlacksmith(t *testing.T) {
	// Misra-Gries bounds counts regardless of access pattern shape, so
	// frequency fuzzing gains nothing against a correctly sized tracker.
	ctl, fm := NewSystem(ScaleConfig(), 0, testAlpha2(), grapheneDefense)
	res := Run(ctl, fm, NewBlacksmith(100, 8, 7), Options{Epochs: 3})
	if !res.Defended() {
		t.Fatalf("Blacksmith-style pattern broke Graphene: %d flips", res.Flips)
	}
}
