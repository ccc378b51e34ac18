package experiments

import (
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/service"
	"repro/internal/tracker"
)

// TestShootoutRRSCAMAttacksCAMTracker pins that the shootout's security
// leg attacks rrs-cam over the tracker its performance leg runs: every
// bank of the attack cell's RRS holds the reference CAM.
func TestShootoutRRSCAMAttacksCAMTracker(t *testing.T) {
	cfg := attack.ScaleConfig()
	ctl, _ := attack.NewSystem(cfg, 0, attack.Alpha2For(cfg), attackFactoryFor(service.MitRRSCAM))
	r, ok := ctl.Mitigation().(*core.RRS)
	if !ok {
		t.Fatalf("rrs-cam attack cell runs %T, want *core.RRS", ctl.Mitigation())
	}
	for ch := 0; ch < cfg.Channels; ch++ {
		for rk := 0; rk < cfg.Ranks; rk++ {
			for b := 0; b < cfg.Banks; b++ {
				id := dram.BankID{Channel: ch, Rank: rk, Bank: b}
				if _, ok := r.Tracker(id).(*tracker.CAM); !ok {
					t.Fatalf("bank %+v tracks with %T, want *tracker.CAM", id, r.Tracker(id))
				}
			}
		}
	}
}

// TestJugglingDistinguishesSRSFromRRS is the regression the SRS paper
// demands (mirrors TestTable7DefenseMatrix): the occupant-chasing attack
// produces bit flips against RRS's logical-row tracker but is bounded by
// SRS's physical-slot tracker. It also pins that classic double-sided
// stays mitigated by both, so SRS's fix costs nothing on the original
// threat model.
func TestJugglingDistinguishesSRSFromRRS(t *testing.T) {
	res, _, err := runShootoutAttack(service.MitRRS, "juggling", false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Defended() {
		t.Error("juggling must produce flips against RRS (logical-row tracking)")
	}
	res, _, err = runShootoutAttack(service.MitSRS, "juggling", true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Defended() {
		t.Errorf("SRS must bound the juggling attack, got %d flips", res.Flips)
	}
	for _, mit := range []string{service.MitRRS, service.MitSRS} {
		res, _, err := runShootoutAttack(mit, "double-sided", false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Defended() {
			t.Errorf("%s must stop double-sided, got %d flips", mit, res.Flips)
		}
	}
}

// TestZooDoubleSidedAtDesignThreshold asserts each successor defense
// drives bit flips to zero under classic double-sided hammering at its
// design threshold. The deterministic defenses (SRS) hold at the attack
// scale's TRH; the sampling defenses (Rubix, MINT, PrIDE, DAPPER) are
// probabilistic, so their design threshold leaves several mitigation
// opportunities inside one flip budget — MINT's budget must span multiple
// tREFI windows, which the attack scale's TRH is too small for.
func TestZooDoubleSidedAtDesignThreshold(t *testing.T) {
	cases := []struct {
		mit string
		trh int
	}{
		{service.MitSRS, 0},   // attack-scale default (240)
		{service.MitRubix, 0}, // PARA-grade refresh at scaled p
		{service.MitPrIDE, 0}, // 4 samples/window vs 528 flip budget
		{service.MitDAPPER, 0},
		{service.MitMINT, 960}, // flip budget 2112 ≈ 12 tREFI windows
	}
	for _, c := range cases {
		t.Run(c.mit, func(t *testing.T) {
			cfg := attack.ScaleConfig()
			if c.trh > 0 {
				cfg.RowHammerThreshold = c.trh
			}
			ctl, fm := attack.NewSystem(cfg, 0, attack.Alpha2For(cfg), attackFactoryFor(c.mit))
			res := attack.Run(ctl, fm, attack.NewDoubleSided(100), attack.Options{Epochs: 3})
			if !res.Defended() {
				t.Errorf("%s: %d flips under double-sided at design threshold",
					c.mit, res.Flips)
			}
		})
	}
}

// TestShootoutQuickScale runs the full zoo through the shootout at quick
// scale under paranoid mode: the acceptance gate for the cross-defense
// subsystem — one combined table, >= 8 mitigations, perf + security +
// SRAM columns, every defense clean under the invariant engine.
func TestShootoutQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-zoo shootout in -short mode")
	}
	rows, tab, err := Shootout(quickScale("hmmer"), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 8 {
		t.Fatalf("%d mitigations in the shootout, want >= 8", len(rows))
	}
	byName := map[string]ShootoutRow{}
	for _, r := range rows {
		byName[r.Mitigation] = r
		if r.NormPerf <= 0 || r.NormPerf > 1.2 {
			t.Errorf("%s: normalized perf %v out of range", r.Mitigation, r.NormPerf)
		}
		if len(r.Flips) != len(shootoutAttacks) {
			t.Errorf("%s: %d attack cells", r.Mitigation, len(r.Flips))
		}
	}
	// The headline security results: RRS falls to juggling, SRS does not;
	// the victim-focused trackers fall to Half-Double.
	if byName[service.MitRRS].Flips["juggling"] == 0 {
		t.Error("RRS must show juggling flips in the shootout")
	}
	if byName[service.MitSRS].Flips["juggling"] != 0 {
		t.Error("SRS must survive juggling in the shootout")
	}
	if byName[service.MitGraphene].Flips["half-double"] == 0 {
		t.Error("Graphene must fall to Half-Double in the shootout")
	}
	// SRS's unified structure must undercut RRS's three structures.
	if byName[service.MitSRS].SRAMKBPerBank >= byName[service.MitRRS].SRAMKBPerBank {
		t.Errorf("SRS SRAM (%v KB) not below RRS (%v KB)",
			byName[service.MitSRS].SRAMKBPerBank, byName[service.MitRRS].SRAMKBPerBank)
	}
	out := tab.String()
	for _, want := range []string{"Norm. perf", "Juggling", "SRAM KB/bank",
		"Near-misses", "mitigated", "BIT FLIPS"} {
		if !strings.Contains(out, want) {
			t.Errorf("shootout table missing %q:\n%s", want, out)
		}
	}
}

// TestShootoutRejectsUnknownMitigation pins the -mitigations flag's error
// path: a typo fails fast, before any simulation runs.
func TestShootoutRejectsUnknownMitigation(t *testing.T) {
	_, _, err := Shootout(quickScale("hmmer"), []string{"rsr"}, false)
	if err == nil {
		t.Fatal("unknown mitigation accepted")
	}
}

func TestSRAMModelOrdering(t *testing.T) {
	// The analytic storage model must reproduce the zoo's cost hierarchy:
	// per-row counters > RRS's three structures > SRS's unified table >
	// Graphene's CAM > the minimalist trackers > stateless PARA.
	ideal := sramKBPerBank(service.MitIdeal)
	rrs := sramKBPerBank(service.MitRRS)
	srs := sramKBPerBank(service.MitSRS)
	graphene := sramKBPerBank(service.MitGraphene)
	mint := sramKBPerBank(service.MitMINT)
	pride := sramKBPerBank(service.MitPrIDE)
	para := sramKBPerBank(service.MitPARA)
	if !(ideal > rrs && rrs > srs && srs > graphene && graphene > pride &&
		pride > mint && mint > para) {
		t.Errorf("cost hierarchy violated: ideal=%v rrs=%v srs=%v graphene=%v pride=%v mint=%v para=%v",
			ideal, rrs, srs, graphene, pride, mint, para)
	}
	if para != 0 {
		t.Errorf("PARA SRAM = %v, want 0", para)
	}
}
