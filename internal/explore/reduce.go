// Partial-order reduction for the stateless explorer.
//
// The decision tree contains many schedules that are equivalent: swapping two
// adjacent decisions whose effects commute yields a run with identical shared
// state and identical per-process outcomes. Exploration with Config.Prune
// keeps only the canonical member of each equivalence class — the schedules
// in which every adjacent commuting pair appears in ascending process order.
// The lexicographically least member of every class is canonical in this
// sense (an out-of-order commuting pair could otherwise be swapped into a
// smaller equivalent schedule), so every class keeps at least one
// representative and the reduction is sound.
//
// Two commutation facts are used:
//
//   - Crash decisions always commute with each other: no step executes
//     between the crash-only rounds of a block of crashes, so the order in
//     which a set of processes dies is unobservable. Equivalent crash
//     placements are thereby canonicalized without any labelling knowledge.
//
//   - Run decisions commute when their granted operations are independent.
//     Independence is judged from the step labels (sleep-set style): the
//     sched discipline is that ALL shared-memory access happens inside the
//     labelled operation a grant executes, so two grants whose labels name
//     different shared objects — or read-only operations on the same object —
//     commute. Run decisions are never commuted with crash decisions, because
//     granted code may consult the Leader/LeaderSet oracles, which observe
//     the crash state.
//
// Labels arrive interned (sched.Label), and the intern table parsed each
// label's object, cell base and read-only flag once, when the label was
// interned (sched.ObjectOf). The per-step commuting check is therefore one
// table read per label and a handful of integer compares — no string work,
// no interning and no allocation on the replay path.
//
// Soundness caveat: the canonical run is equivalent to the pruned ones in
// shared-object state and per-process outcomes, but harness bookkeeping done
// inside process bodies (e.g. appending to a shared log) may observe the
// reordering. Checkers used under Prune must therefore be insensitive to the
// order of commuting operations — treat logs as multisets, not sequences.

package explore

import (
	"runtime"

	"mpcn/internal/sched"
)

// DefaultWorkers is the worker-pool size both engines use when
// Config.Workers is unset: every CPU, but at least 2 so the parallel path is
// always exercised.
func DefaultWorkers() int {
	if n := runtime.NumCPU(); n > 2 {
		return n
	}
	return 2
}

// canonicallyLater reports whether choice c may follow prev in a canonical
// schedule. A choice that commutes with prev and has a smaller process ID is
// redundant: the swapped schedule is explored (or was pruned for a deeper
// reason) in an earlier sibling branch.
func (s *scripted) canonicallyLater(prev, c Choice) bool {
	if c.Proc >= prev.Proc || c.Crash != prev.Crash {
		return true
	}
	if c.Crash {
		return false // adjacent crashes always commute
	}
	return !LabelsIndependent(c.Label, prev.Label)
}

// LabelsIndependent is the independence predicate of Config.Prune:
// two step labels commute when they address non-conflicting shared objects,
// or when both are read-only operations on the same object. The object is
// the label up to its final '.'-separated component, matching the labelling
// convention of the reg, snapshot and object packages. A cell conflicts with
// its enclosing whole-object operations ("SM[0].update" vs "SM.scan") but not
// with its sibling cells ("mem[0]" vs "mem[1]"). The synthetic start label
// commutes with everything: the prologue it grants runs no labelled
// operation, and the sched discipline places all shared access inside
// labelled operations.
func LabelsIndependent(a, b sched.Label) bool {
	if a == sched.LabelStart || b == sched.LabelStart {
		return true
	}
	objA, baseA, readA := sched.ObjectOf(a)
	objB, baseB, readB := sched.ObjectOf(b)
	conflict := objA == objB ||
		(baseA != sched.ObjectNone && baseA == objB) ||
		(baseB != sched.ObjectNone && baseB == objA)
	return !conflict || readA && readB
}
