// Package invariant is the self-verification layer of the simulation
// core: a typed error taxonomy for structural failures, and an engine
// that runs a catalog of cheap, toggleable runtime checks over the
// mitigation pipeline's state.
//
// The RRS paper's security argument rests on structural properties the
// hardware maintains by construction — the RIT's dual-entry involution,
// the Misra-Gries count bounds, CAT occupancy accounting, swap-buffer
// data conservation. The software reproduction re-derives several of
// those properties through redundant state (presence bitsets, dense
// slices, sparse maps, paged permutations, memoized set indexes, cached
// minima) that can silently drift.
// This package makes the properties machine-checked: each structure
// package exports a CheckInvariants method (and, where drift is only
// visible differentially, a map-based shadow model), and the engine runs
// them on a cadence during paranoid-mode simulations, latching the first
// Violation so a run fails with a diagnosable report instead of
// continuing on corrupt state.
//
// The catalog of checks registered by a paranoid sim.Run (see DESIGN.md
// "Invariant catalog" for the paper justification and cost of each):
//
//   - rit/structure: involution (<X,Y> implies <Y,X>), lock-bit parity,
//     tuple-count and capacity accounting, and the table's
//     presence-bitset agreement (cat/presence).
//   - rit/shadow: map-based reference RIT mirrors installs, removals and
//     evictions; every Remap answer is cross-checked (first divergence
//     is reported, naming the row and both answers).
//   - tracker/structure: CAT SetMin exactness and cached-global-minimum
//     agreement, relocation-counter sync, the table's structural checks
//     (cat/* below), Misra-Gries count lower bound (no estimate below the spill
//     counter); CAM slot/index agreement and cached-minimum exactness.
//   - tracker/shadow: map-based Misra-Gries reference replays every
//     observation and cross-checks counts, spill, triggers, installs
//     and evictions at the first mismatch.
//   - cat/structure: two-table occupancy (each set's occupancy mask
//     against its invalid-way counter, no mask bit past the set's ways),
//     size accounting, slot-placement consistency (every key sits in a
//     set its hashes select), no duplicate keys, and presence-bitset
//     agreement (cat/presence).
//   - dram/structure: activation count/dirty-list agreement, no dirty
//     list on a bank without per-row counts, in-range activation-log
//     rows, and the sparse content map holding only rows inside the
//     bank.
//   - dram/swap-conservation: every SwapRows/CycleRows is re-read after
//     the transfer and compared against the contents captured before it
//     (the ~2.9 us swap+unswap window of Figure 4 must conserve row
//     data).
//   - rubix/permutation: each bank's boot-time row map is a
//     permutation (every slot in range, none repeated) and, where
//     Occupant has built the bank's inverse map, the inverse agrees.
//
// Package invariant has no dependencies inside the repository, so every
// structure package can use its error types without import cycles.
package invariant

import (
	"errors"
	"fmt"
)

// ErrBadGeometry is the taxonomy root for construction-time structural
// errors: a CAT spec with non-positive sets or ways, a RIT capacity its
// geometry cannot hold, a DRAM configuration that fails validation.
// Constructors wrap it so callers can classify with errors.Is.
var ErrBadGeometry = errors.New("bad geometry")

// Violation is the typed error reporting a broken runtime invariant. It
// names the catalog entry that failed, so an operator (or the fault
// injection suite) can tell exactly which guarantee broke, and carries a
// human-readable detail of the observed state.
type Violation struct {
	// Invariant is the catalog name, e.g. "rit/involution".
	Invariant string
	// Detail describes the first observed mismatch.
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("invariant violation [%s]: %s", v.Invariant, v.Detail)
}

// Violatedf builds a Violation for the named invariant.
func Violatedf(invariant, format string, args ...any) *Violation {
	return &Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}

// AsViolation unwraps err to a *Violation, or nil.
func AsViolation(err error) *Violation {
	var v *Violation
	if errors.As(err, &v) {
		return v
	}
	return nil
}
