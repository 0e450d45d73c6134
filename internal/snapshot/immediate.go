package snapshot

import (
	"fmt"

	"mpcn/internal/reg"
	"mpcn/internal/sched"
)

// Immediate is the one-shot immediate snapshot object of Borowsky and Gafni,
// the combinatorial primitive behind the BG simulation's topology arguments:
// every participant writes a value and obtains a view (a set of written
// values) such that
//
//   - Self-inclusion: a process's own value is in its view.
//   - Containment: any two views are ordered by inclusion.
//   - Immediacy: if p's value is in q's view, then p's view ⊆ q's view.
//
// The implementation is the classic recursive level descent built from
// single-writer registers: a process starts at level n and descends; at each
// level it writes (value, level) and collects; if at least `level` processes
// are at its level or below, it returns them as its view. It is wait-free.
type Immediate[T any] struct {
	name  string
	cells *reg.Array[isCell[T]]
	done  map[sched.ProcID]bool
}

// isCell is one participant's register: its value and current level
// (0 = not participating yet).
type isCell[T any] struct {
	level int
	val   T
}

// Fingerprint implements sched.Fingerprinter. The receiver is a pointer so
// that the T-typed value folds in place through sched.Fold: the backing
// register array reaches the cell by pointer, and nothing is boxed.
func (c *isCell[T]) Fingerprint(h *sched.FP) {
	h.Int(c.level)
	sched.Fold(h, &c.val)
}

// NewImmediate returns a one-shot immediate snapshot for n processes.
func NewImmediate[T any](name string, n int) *Immediate[T] {
	if n < 1 {
		panic(fmt.Sprintf("snapshot: immediate %q needs n >= 1, got %d", name, n))
	}
	return &Immediate[T]{
		name:  name,
		cells: reg.NewArray[isCell[T]](name, n),
		done:  make(map[sched.ProcID]bool),
	}
}

// Fingerprint implements sched.Fingerprinter: it folds the register array
// and the (unordered) set of processes that already invoked WriteSnapshot.
func (s *Immediate[T]) Fingerprint(h *sched.FP) {
	s.cells.Fingerprint(h)
	h.ProcSet(s.done)
}

// View is an immediate-snapshot view: the participants seen and their
// values, indexed consistently.
type View[T any] struct {
	// Procs lists the seen participants in increasing ID order.
	Procs []int
	// Vals[i] is the value written by Procs[i].
	Vals []T
}

// Contains reports whether the view includes process p.
func (v View[T]) Contains(p int) bool {
	for _, q := range v.Procs {
		if q == p {
			return true
		}
		if q > p {
			return false
		}
	}
	return false
}

// Subset reports whether v's participants are a subset of w's.
func (v View[T]) Subset(w View[T]) bool {
	for _, p := range v.Procs {
		if !w.Contains(p) {
			return false
		}
	}
	return true
}

// WriteSnapshot performs the one-shot immediate write-snapshot: it publishes
// val and returns the caller's view. Each process may invoke it at most
// once.
func (s *Immediate[T]) WriteSnapshot(e *sched.Env, val T) View[T] {
	id := e.ID()
	if s.done[id] {
		panic(fmt.Sprintf("snapshot: process %d invoked immediate %q twice", id, s.name))
	}
	s.done[id] = true
	me := int(id)
	n := s.cells.Len()

	for level := n; level >= 1; level-- {
		s.cells.Write(e, me, isCell[T]{level: level, val: val})
		collected := s.cells.Collect(e)
		var procs []int
		for j, c := range collected {
			if c.level != 0 && c.level <= level {
				procs = append(procs, j)
			}
		}
		if len(procs) >= level {
			view := View[T]{Procs: procs, Vals: make([]T, len(procs))}
			for i, p := range procs {
				view.Vals[i] = collected[p].val
			}
			return view
		}
	}
	// Level 1 always terminates: the caller itself is at level 1.
	panic(fmt.Sprintf("snapshot: immediate %q descent fell through", s.name))
}
