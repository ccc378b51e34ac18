package mitigation

import (
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/memctrl"
	"repro/internal/prince"
)

// PrIDE models probabilistic tracker management (arXiv 2404.16256, and
// its DAPPER refinement arXiv 2501.18857): per bank, a tiny FIFO of
// sampled aggressor rows. Each activation is enqueued with probability p
// (default 4/W, W activations per tREFI); at every tREFI boundary the
// head entry is popped and its neighbours refreshed, hiding the refresh
// in the slack of the regular refresh operation. The queue bounds SRAM
// at a handful of row addresses per bank, and sampling bounds the rate
// at which refreshes are generated.
//
// The two papers differ in overflow policy, which is exactly where
// their security analyses diverge:
//
//   - PrIDE drops the new sample when the queue is full (simple, but an
//     attacker who keeps the queue saturated suppresses new captures).
//   - DAPPER replaces a uniformly random resident entry instead, so a
//     saturating attacker cannot keep any specific sample out.
//
// NewPrIDE and NewDAPPER share this implementation via the replace flag.
type PrIDE struct {
	verifier
	observer
	sys *dram.System
	cfg config.Config
	// p is the per-activation enqueue probability.
	p float64
	// replace selects DAPPER's random-replacement overflow policy.
	replace bool
	units   []prideUnit
	stat    PrIDEStats
}

// prideQueueCap is the per-bank FIFO depth (the papers evaluate 4-16
// entries; 8 is DAPPER's default configuration).
const prideQueueCap = 8

// prideUnit is one bank's tracker: the FIFO is a fixed ring so the hot
// path never allocates.
type prideUnit struct {
	rng    *prince.CTR
	ring   [prideQueueCap]int32
	head   int32
	n      int32
	window int64
}

// PrIDEStats counts tracker activity.
type PrIDEStats struct {
	// Enqueued is the number of sampled aggressors admitted to a queue.
	Enqueued int64
	// Serviced is the number of entries popped and refreshed.
	Serviced int64
	// Dropped counts samples lost to a full queue (PrIDE policy).
	Dropped int64
	// Replaced counts random replacements on overflow (DAPPER policy).
	Replaced int64
	// Refreshes is the number of neighbour refresh activations issued.
	Refreshes int64
}

// DefaultPrIDEProbability returns the papers' sampling rate for the
// configuration: 4 expected enqueues per tREFI window, clamped to 1.
func DefaultPrIDEProbability(cfg config.Config) float64 {
	w := int64(cfg.TREFI) / int64(cfg.TRC)
	if w < 1 {
		w = 1
	}
	p := 4 / float64(w)
	if p > 1 {
		p = 1
	}
	return p
}

// NewPrIDE creates the drop-on-overflow variant.
func NewPrIDE(sys *dram.System, p float64, seed uint64) *PrIDE {
	return newPrIDE(sys, p, seed, false)
}

// NewDAPPER creates the random-replacement variant.
func NewDAPPER(sys *dram.System, p float64, seed uint64) *PrIDE {
	return newPrIDE(sys, p, seed, true)
}

func newPrIDE(sys *dram.System, p float64, seed uint64, replace bool) *PrIDE {
	if p < 0 || p > 1 {
		panic("mitigation: PrIDE probability out of range")
	}
	cfg := sys.Config()
	nBanks := cfg.Channels * cfg.Ranks * cfg.Banks
	q := &PrIDE{
		sys:     sys,
		cfg:     cfg,
		p:       p,
		replace: replace,
		units:   make([]prideUnit, nBanks),
	}
	seeds := prince.Seeded(seed)
	for i := range q.units {
		u := &q.units[i]
		u.rng = prince.NewCTR(seeds.Next(), seeds.Next())
		u.window = -1
	}
	return q
}

// Stats returns tracker activity counts.
func (q *PrIDE) Stats() PrIDEStats { return q.stat }

// Replaces reports whether this instance uses DAPPER's overflow policy.
func (q *PrIDE) Replaces() bool { return q.replace }

// Remap implements memctrl.Mitigation; the tracker does not move rows.
func (q *PrIDE) Remap(_ dram.BankID, row int) int { return row }

// ActivateDelay implements memctrl.Mitigation; no throttling.
func (q *PrIDE) ActivateDelay(dram.BankID, int, int64) int64 { return 0 }

// AccessPenalty implements memctrl.Mitigation; queue lookups are off the
// access critical path.
func (q *PrIDE) AccessPenalty() int64 { return 0 }

// OnEpoch implements memctrl.Mitigation: the epoch's full refresh clears
// any disturbance the queued samples were covering.
func (q *PrIDE) OnEpoch(int64) {
	for i := range q.units {
		u := &q.units[i]
		u.head = 0
		u.n = 0
		u.window = -1
	}
}

// OnActivate implements memctrl.Mitigation: at a tREFI boundary, service
// the queue head; then sample this activation into the queue with
// probability p.
func (q *PrIDE) OnActivate(id dram.BankID, _, physRow int, now int64) memctrl.ActResult {
	bi := bankIndex(q.cfg, id)
	u := &q.units[bi]
	var res memctrl.ActResult
	if w, _ := q.sys.RefreshWindow(now); w != u.window {
		u.window = w
		if u.n > 0 {
			victim := int(u.ring[u.head])
			u.head = (u.head + 1) % prideQueueCap
			u.n--
			n := refreshNeighbors(q.sys, id, victim, 1, now)
			q.stat.Serviced++
			q.stat.Refreshes += int64(n)
			q.recordRefresh(int32(bi), victim, n, now)
			res.BankBlock = victimRefreshCost(q.cfg, n)
		}
	}
	if u.rng.Float64() < q.p {
		if u.n < prideQueueCap {
			u.ring[(u.head+u.n)%prideQueueCap] = int32(physRow)
			u.n++
			q.stat.Enqueued++
		} else if q.replace {
			slot := (u.head + int32(u.rng.Intn(prideQueueCap))) % prideQueueCap
			u.ring[slot] = int32(physRow)
			q.stat.Replaced++
		} else {
			q.stat.Dropped++
		}
	}
	return res
}

// EnableParanoid attaches the shared DRAM checks plus the queue's
// structural catalog.
func (q *PrIDE) EnableParanoid(eng *invariant.Engine) {
	q.attach(eng, q.sys)
	eng.Register("pride/queue", q.CheckInvariants)
}

// CheckInvariants verifies every bank's ring indices are inside the
// fixed queue and every resident entry names a row in the bank.
func (q *PrIDE) CheckInvariants() error {
	for i := range q.units {
		u := &q.units[i]
		if u.head < 0 || u.head >= prideQueueCap {
			return invariant.Violatedf("pride/queue",
				"bank %d: head %d outside ring", i, u.head)
		}
		if u.n < 0 || u.n > prideQueueCap {
			return invariant.Violatedf("pride/queue",
				"bank %d: occupancy %d outside [0, %d]", i, u.n, prideQueueCap)
		}
		for k := int32(0); k < u.n; k++ {
			r := u.ring[(u.head+k)%prideQueueCap]
			if r < 0 || int(r) >= q.cfg.RowsPerBank {
				return invariant.Violatedf("pride/queue",
					"bank %d: queued row %d outside bank", i, r)
			}
		}
	}
	return nil
}
