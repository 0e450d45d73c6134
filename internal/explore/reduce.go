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
// Labels arrive interned (sched.Label), and the object-name parsing behind
// the independence judgment is done once per label: a Label-indexed side
// table caches each label's object, cell base and read-only flag, with the
// object names themselves interned back into the label table. The per-step
// commuting check is therefore a handful of integer compares — no string
// formatting, hashing or allocation on the replay path.
//
// Soundness caveat: the canonical run is equivalent to the pruned ones in
// shared-object state and per-process outcomes, but harness bookkeeping done
// inside process bodies (e.g. appending to a shared log) may observe the
// reordering. Checkers used under Prune must therefore be insensitive to the
// order of commuting operations — treat logs as multisets, not sequences.

package explore

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

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

// labelMeta is the cached independence-relevant structure of one label.
type labelMeta struct {
	// obj is the interned shared-object part of the label
	// ("xsa.SM.scan" -> "xsa.SM", "mem[3].write" -> "mem[3]").
	obj sched.Label
	// base is the interned cell base when obj is an indexed cell
	// ("mem[3]" -> "mem"), LabelNone otherwise.
	base sched.Label
	// readOnly marks operations known not to mutate their object.
	readOnly bool
}

// metaTable is the Label-indexed cache of labelMeta. Lookups are lock-free
// on an immutable snapshot; a miss (a label interned after the last snapshot)
// extends the table under the mutex. sched.Label values are dense, so the
// table is a plain slice.
var metaTable struct {
	mu sync.Mutex
	p  atomic.Pointer[[]labelMeta]
}

func metaOf(l sched.Label) labelMeta {
	if ms := metaTable.p.Load(); ms != nil && int(l) < len(*ms) {
		return (*ms)[l]
	}
	metaTable.mu.Lock()
	defer metaTable.mu.Unlock()
	var old []labelMeta
	if ms := metaTable.p.Load(); ms != nil {
		old = *ms
		if int(l) < len(old) {
			return old[l]
		}
	}
	// Extend to cover every label interned so far (at least l).
	n := sched.NumLabels()
	if n <= int(l) {
		n = int(l) + 1
	}
	ms := make([]labelMeta, n)
	copy(ms, old)
	for i := len(old); i < n; i++ {
		ms[i] = computeMeta(sched.Label(i).String())
	}
	metaTable.p.Store(&ms)
	return ms[l]
}

func computeMeta(label string) labelMeta {
	obj := labelObject(label)
	m := labelMeta{obj: sched.Intern(obj), readOnly: labelReadOnly(label)}
	if base, ok := cellBase(obj); ok {
		m.base = sched.Intern(base)
	}
	return m
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
	ma, mb := metaOf(a), metaOf(b)
	conflict := ma.obj == mb.obj ||
		(ma.base != sched.LabelNone && ma.base == mb.obj) ||
		(mb.base != sched.LabelNone && mb.base == ma.obj)
	if conflict {
		return ma.readOnly && mb.readOnly
	}
	return true
}

// labelObject extracts the shared-object part of a step label.
func labelObject(label string) string {
	if i := strings.LastIndexByte(label, '.'); i >= 0 {
		return label[:i]
	}
	return label
}

// cellBase strips a trailing index group: "mem[3]" -> ("mem", true).
func cellBase(obj string) (string, bool) {
	if !strings.HasSuffix(obj, "]") {
		return "", false
	}
	i := strings.LastIndexByte(obj, '[')
	if i < 0 {
		return "", false
	}
	return obj[:i], true
}

// labelReadOnly reports whether a label names an operation known not to
// mutate its object: register reads and (primitive) snapshot scans.
func labelReadOnly(label string) bool {
	return strings.HasSuffix(label, ".read") || strings.HasSuffix(label, ".scan")
}
