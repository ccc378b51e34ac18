package cat

import (
	"math"

	"repro/internal/prince"
)

// ConflictExperiment reproduces the Figure 9 buckets-and-balls experiment:
// how many installs a CAT with a given number of extra ways sustains before
// an install finds both candidate sets full.
//
// The model matches the paper: the table holds Capacity items; every
// install beyond the capacity evicts a uniformly random resident entry
// first, then installs into the less-loaded candidate set. The experiment
// runs until the first conflict or MaxInstalls, whichever comes first.
type ConflictExperiment struct {
	Sets       int // sets per table (paper: 64)
	DemandWays int // paper: 14
	ExtraWays  int // paper: 1..6
	// Capacity is the target number of resident entries; defaults to
	// 2*Sets*DemandWays when zero.
	Capacity int
	// MaxInstalls bounds the experiment (0 means 1e9).
	MaxInstalls int64
	// Trials averages over this many independent runs (0 means 1).
	Trials int
	// Seed makes the experiment reproducible.
	Seed uint64
}

// ConflictResult reports the outcome of a ConflictExperiment.
type ConflictResult struct {
	// MeanInstalls is the mean number of installs before the first
	// conflict over all trials that conflicted.
	MeanInstalls float64
	// Conflicted is how many trials hit a conflict before MaxInstalls.
	Conflicted int
	// Trials is the number of runs performed.
	Trials int
}

// Run executes the Monte Carlo experiment.
func (e ConflictExperiment) Run() ConflictResult {
	capacity := e.Capacity
	if capacity == 0 {
		capacity = 2 * e.Sets * e.DemandWays
	}
	maxInstalls := e.MaxInstalls
	if maxInstalls == 0 {
		maxInstalls = 1e9
	}
	trials := e.Trials
	if trials == 0 {
		trials = 1
	}

	var sum float64
	res := ConflictResult{Trials: trials}
	for tr := 0; tr < trials; tr++ {
		rng := prince.Seeded(e.Seed + uint64(tr)*0x9e37)
		n := e.installsToConflict(rng, capacity, maxInstalls)
		if n >= 0 {
			res.Conflicted++
			sum += float64(n)
		}
	}
	if res.Conflicted > 0 {
		res.MeanInstalls = sum / float64(res.Conflicted)
	}
	return res
}

// installsToConflict simulates one run. Keys are consecutive integers mixed
// through the CAT's own hashes, i.e., random set choices per install,
// matching the buckets-and-balls abstraction. Returns -1 if no conflict
// occurred within maxInstalls.
func (e ConflictExperiment) installsToConflict(rng *prince.CTR, capacity int, maxInstalls int64) int64 {
	ways := e.DemandWays + e.ExtraWays
	t := New[struct{}](Spec{Sets: e.Sets, Ways: ways}, rng.Next())
	var nextKey uint64
	for n := int64(1); n <= maxInstalls; n++ {
		if t.Len() >= capacity {
			// Random eviction keeps residency at the target capacity.
			if key, _, ok := t.RandomEntry(rng, nil); ok {
				t.Delete(key)
			}
		}
		key := nextKey
		nextKey++
		s0, s1 := t.setsOf(key)
		if t.sets[0][s0].invalid == 0 && t.sets[1][s1].invalid == 0 {
			return n // conflict on this install
		}
		t.Install(key, struct{}{})
	}
	return -1
}

// ExtrapolateInstalls extends measured installs-to-conflict numbers to
// higher extra-way counts using the continued-squaring behaviour of
// power-of-two-choices load (MIRAGE, equations 6-7): the per-install
// probability of a set exceeding load D+E roughly squares with each extra
// way, so log10(installs) doubles (plus a constant) per extra way.
//
// measured maps extraWays -> installs for at least two consecutive E
// values; the return maps every E in [minE, maxE] to measured or
// extrapolated installs (as log10 to avoid overflow).
func ExtrapolateInstalls(measured map[int]float64, minE, maxE int) map[int]float64 {
	out := make(map[int]float64, maxE-minE+1)
	for e, v := range measured {
		if e >= minE && e <= maxE {
			out[e] = math.Log10(v)
		}
	}
	// Find the largest measured E to anchor the extrapolation.
	anchor := -1
	for e := maxE; e >= minE; e-- {
		if _, ok := out[e]; ok {
			anchor = e
			break
		}
	}
	if anchor == -1 {
		return out
	}
	// Calibrate the squaring offset c from the last two measured points:
	// log10 N(E+1) = 2*log10 N(E) + c. Fall back to c = 0 with one point.
	c := 0.0
	if prev, ok := out[anchor-1]; ok {
		c = out[anchor] - 2*prev
	}
	for e := anchor + 1; e <= maxE; e++ {
		out[e] = 2*out[e-1] + c
	}
	return out
}
