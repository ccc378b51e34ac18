package mitigation

import (
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/memctrl"
	"repro/internal/prince"
)

// Rubix models the randomized-mapping defense of arXiv 2308.14907: a
// static keyed permutation of the line/row address space installed at
// boot, so that rows adjacent in the attacker's logical view land in
// unrelated physical slots. The attacker can still hammer — physical
// adjacency exists wherever data is stored — so Rubix (like the paper)
// pairs the scrambled map with a lightweight probabilistic refresh of
// the physical neighbours, at PARA's rate for the configured threshold.
//
// Simplifications versus the paper, documented in DESIGN.md §11: the
// permutation is modeled per-bank at row granularity (the paper encrypts
// line addresses; at the simulator's row-level fault model the two
// collapse), and there is no periodic re-keying within a run.
type Rubix struct {
	verifier
	observer
	sys  *dram.System
	cfg  config.Config
	prob float64
	rng  *prince.CTR
	// perm maps logical row -> physical row per bank. inv[b] is perm[b]'s
	// inverse, built the first time Occupant asks about bank b: only the
	// juggling attacker's oracle needs it, so a run without one never
	// pays for it.
	perm [][]int32
	inv  [][]int32
	// seen is CheckInvariants' scratch bitset over one bank's rows.
	seen []uint64
	// keyPenalty is the per-access address-scrambling latency, modeled
	// like the RIT lookup.
	keyPenalty int64
	stat       VictimStats
}

// NewRubix builds the boot-time permutation from seed and refreshes
// physical neighbours with probability prob per activation. It draws
// every bank's shuffle but builds no inverse (see Occupant).
func NewRubix(sys *dram.System, prob float64, seed uint64) *Rubix {
	if prob < 0 || prob > 1 {
		panic("mitigation: Rubix probability out of range")
	}
	cfg := sys.Config()
	nBanks := cfg.Channels * cfg.Ranks * cfg.Banks
	r := &Rubix{
		sys:        sys,
		cfg:        cfg,
		prob:       prob,
		rng:        prince.Seeded(seed),
		perm:       make([][]int32, nBanks),
		inv:        make([][]int32, nBanks),
		keyPenalty: int64(float64(cfg.RITLatencyCPUCycles)/config.CPUCyclesPerBusCycle + 0.5),
	}
	keys := prince.Seeded(seed ^ 0x5275_6269_78)
	for b := range r.perm {
		perm := make([]int32, cfg.RowsPerBank)
		for i := range perm {
			perm[i] = int32(i)
		}
		// Fisher-Yates with a per-bank keyed generator: the installed map
		// is uniform over permutations and reproducible from the seed.
		rng := prince.NewCTR(keys.Next(), keys.Next())
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		r.perm[b] = perm
	}
	return r
}

// Stats returns refresh activity counts.
func (r *Rubix) Stats() VictimStats { return r.stat }

// Remap implements memctrl.Mitigation: the keyed scramble.
func (r *Rubix) Remap(id dram.BankID, row int) int {
	return int(r.perm[bankIndex(r.cfg, id)][row])
}

// Occupant returns the logical row mapped onto the physical slot
// (attack.OccupantFinder); for Rubix the map is static. The bank's first
// call builds its inverse map.
func (r *Rubix) Occupant(id dram.BankID, physRow int) int {
	b := bankIndex(r.cfg, id)
	if r.inv[b] == nil {
		inv := make([]int32, len(r.perm[b]))
		for l, p := range r.perm[b] {
			inv[p] = int32(l)
		}
		r.inv[b] = inv
	}
	return int(r.inv[b][physRow])
}

// ActivateDelay implements memctrl.Mitigation; Rubix never throttles.
func (r *Rubix) ActivateDelay(dram.BankID, int, int64) int64 { return 0 }

// AccessPenalty implements memctrl.Mitigation: the address-scrambler
// latency on every access.
func (r *Rubix) AccessPenalty() int64 { return r.keyPenalty }

// OnEpoch implements memctrl.Mitigation; the static map carries no
// windowed state.
func (r *Rubix) OnEpoch(int64) {}

// OnActivate implements memctrl.Mitigation: probabilistically refresh the
// *physical* neighbours of the activated slot. Headroom is zero — a
// probabilistic defense provides no deterministic inertness window.
func (r *Rubix) OnActivate(id dram.BankID, row, physRow int, now int64) memctrl.ActResult {
	if r.rng.Float64() >= r.prob {
		return memctrl.ActResult{}
	}
	n := refreshPair(r.sys, id, physRow, now)
	r.stat.Mitigations++
	r.stat.Refreshes += int64(n)
	r.recordRefresh(int32(bankIndex(r.cfg, id)), physRow, n, now)
	return memctrl.ActResult{BankBlock: victimRefreshCost(r.cfg, n)}
}

// EnableParanoid attaches the shared DRAM checks plus Rubix's structural
// catalog: the boot-time map must remain a bijection.
func (r *Rubix) EnableParanoid(eng *invariant.Engine) {
	r.attach(eng, r.sys)
	eng.Register("rubix/permutation", r.CheckInvariants)
}

// CheckInvariants verifies every bank's perm is a permutation (each
// value in range, none repeated, checked against a scratch bitset) and,
// where Occupant has built the bank's inverse, that inv inverts it. The
// map is immutable after construction, so a violation means memory
// corruption, not a logic race.
func (r *Rubix) CheckInvariants() error {
	if r.seen == nil {
		r.seen = make([]uint64, (r.cfg.RowsPerBank+63)/64)
	}
	for b, perm := range r.perm {
		clear(r.seen)
		for l, p := range perm {
			if p < 0 || int(p) >= len(perm) {
				return invariant.Violatedf("rubix/permutation",
					"bank %d: perm[%d] = %d out of range", b, l, p)
			}
			w, bit := p>>6, uint64(1)<<(p&63)
			if r.seen[w]&bit != 0 {
				return invariant.Violatedf("rubix/permutation",
					"bank %d: perm[%d] = %d repeats an earlier row's slot", b, l, p)
			}
			r.seen[w] |= bit
		}
		if inv := r.inv[b]; inv != nil {
			for l, p := range perm {
				if int(inv[p]) != l {
					return invariant.Violatedf("rubix/permutation",
						"bank %d: inv[perm[%d]=%d] = %d, want %d", b, l, p, inv[p], l)
				}
			}
		}
	}
	return nil
}

// CorruptPermForTest maps logical row to physical slot phys in bank id
// without touching the inverse. The fault-injection suite uses it to
// prove CheckInvariants detects a broken map; production code must never
// call it.
func (r *Rubix) CorruptPermForTest(id dram.BankID, row int, phys int32) {
	r.perm[bankIndex(r.cfg, id)][row] = phys
}
