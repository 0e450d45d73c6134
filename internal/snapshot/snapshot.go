// Package snapshot provides atomic snapshot objects over the sched runtime.
//
// The paper's shared memory mem[1..n] is a single-writer atomic snapshot
// object [Afek et al. 1993]: process j writes component j with
// mem[j].write(v) and any process atomically reads the whole array with
// mem.snapshot(). Two interchangeable implementations are provided:
//
//   - Primitive: Update and Scan are each a single atomic step. This matches
//     the paper, which takes snapshot objects as given primitives.
//   - Afek: the real wait-free construction from single-writer registers
//     (double collect with embedded views), demonstrating that the substrate
//     needs nothing stronger than read/write registers (consensus number 1).
//
// Upper layers accept the Snapshot interface, so every experiment can run on
// either implementation; bench_test.go compares them (ablation E12).
package snapshot

import (
	"fmt"

	"mpcn/internal/reg"
	"mpcn/internal/sched"
)

// Snapshot is an n-component atomic snapshot object.
type Snapshot[T any] interface {
	// Update atomically writes v to component i.
	Update(e *sched.Env, i int, v T)
	// Scan atomically reads all components and returns a fresh slice.
	Scan(e *sched.Env) []T
	// Len returns the number of components.
	Len() int
}

// Primitive is a snapshot object whose Update and Scan are single atomic
// steps, the granularity at which the paper's algorithms use mem. Step
// labels are interned at construction, so operations perform no per-step
// string work.
type Primitive[T any] struct {
	name    string
	updateL []sched.Label
	scanL   sched.Label
	cells   []T
	memo    sched.Memo // the plain-mode digest of cells, between updates
}

var _ Snapshot[int] = (*Primitive[int])(nil)

// NewPrimitive returns an n-component primitive snapshot named name.
func NewPrimitive[T any](name string, n int) *Primitive[T] {
	if n <= 0 {
		panic(fmt.Sprintf("snapshot: %q must have positive size, got %d", name, n))
	}
	return &Primitive[T]{
		name:    name,
		updateL: sched.InternIndexed("%s[%d].update", name, n),
		scanL:   sched.Intern(name + ".scan"),
		cells:   make([]T, n),
		memo:    sched.NewMemo[T](),
	}
}

// Update implements Snapshot.
func (s *Primitive[T]) Update(e *sched.Env, i int, v T) {
	e.StepL(s.updateL[i])
	s.cells[i] = v
	s.memo.Invalidate()
}

// Scan implements Snapshot.
func (s *Primitive[T]) Scan(e *sched.Env) []T {
	e.StepL(s.scanL)
	if e.Observing() {
		s.observe(e)
	}
	out := make([]T, len(s.cells))
	copy(out, s.cells)
	return out
}

// ScanView is the zero-copy Scan for callers that consume the view before
// their next step: it returns the object's live component array. Between two
// steps no other process runs, so the cells cannot change under a caller that
// reads the view immediately; the slice must not be written, and is invalid
// after the caller's next step. Replay-engine hot paths use it to avoid the
// per-scan copy.
func (s *Primitive[T]) ScanView(e *sched.Env) []T {
	e.StepL(s.scanL)
	if e.Observing() {
		s.observe(e)
	}
	return s.cells
}

// observe records a whole-array read in the caller's observation digest:
// the memoized digest of the cells (sched.ObserveMemo), or each cell when
// the memo is off. Callers check Env.Observing first, so an unobserved scan
// pays no call.
func (s *Primitive[T]) observe(e *sched.Env) {
	if !sched.ObserveMemo(e, &s.memo, s) {
		for i := range s.cells {
			sched.Observe(e, &s.cells[i])
		}
	}
}

// Reset clears every component to the zero value, returning the object to
// its freshly constructed state without re-interning any labels. Replay
// engines rebuild shared state millions of times; label interning was the
// dominant cost of construction.
func (s *Primitive[T]) Reset() {
	var zero T
	for i := range s.cells {
		s.cells[i] = zero
	}
	s.memo.Invalidate()
}

// Len implements Snapshot.
func (s *Primitive[T]) Len() int { return len(s.cells) }

// Fingerprint implements sched.Fingerprinter: it folds the object's identity
// and every component in index order. Component i routes through digest lane
// i — snapshot components are per-process by construction (process i updates
// component i) — so the object canonicalizes under symmetry reduction; on a
// plain FP, Lane is the identity and the fold is the exact in-order fold,
// memoized between updates (sched.Memo).
func (s *Primitive[T]) Fingerprint(h *sched.FP) {
	if f := s.memo.Begin(h); f != nil {
		f.Label(s.scanL)
		for i := range s.cells {
			sched.Fold(f.Lane(sched.ProcID(i)), &s.cells[i])
		}
	}
	s.memo.End(h)
}

// afekCell is one single-writer register of the Afek et al. construction:
// the value, the writer's sequence number, and the view embedded by the
// write's preceding scan.
type afekCell[T any] struct {
	val  T
	seq  int
	view []T
}

// Fingerprint implements sched.Fingerprinter. The receiver is a pointer so
// that the T-typed value and view fold in place through sched.Fold: the
// register array's observations and state folds reach the cell by pointer,
// and nothing is boxed.
func (c *afekCell[T]) Fingerprint(h *sched.FP) {
	sched.Fold(h, &c.val)
	h.Int(c.seq)
	h.Int(len(c.view))
	for i := range c.view {
		sched.Fold(h, &c.view[i])
	}
}

// Afek is the wait-free snapshot construction of Afek, Attiya, Dolev, Gafni,
// Merritt and Shavit (JACM 1993) built from single-writer multi-reader
// registers. A scanner double-collects until either two collects agree
// (a clean double collect linearizes between them) or some updater is seen
// to move twice, in which case the updater's second embedded view was
// obtained entirely within the scanner's interval and is borrowed.
type Afek[T any] struct {
	regs *reg.Array[afekCell[T]]
	// seqs[i] is the sequence number of component i's last write, kept by
	// its single writer, which needs no step to know its own register.
	seqs []int
}

var _ Snapshot[int] = (*Afek[int])(nil)

// NewAfek returns an n-component Afek-et-al snapshot named name.
func NewAfek[T any](name string, n int) *Afek[T] {
	if n <= 0 {
		panic(fmt.Sprintf("snapshot: %q must have positive size, got %d", name, n))
	}
	return &Afek[T]{regs: reg.NewArray[afekCell[T]](name, n), seqs: make([]int, n)}
}

// Len implements Snapshot.
func (s *Afek[T]) Len() int { return s.regs.Len() }

// Fingerprint implements sched.Fingerprinter: it folds every underlying
// register — value, sequence number and embedded view — in index order.
// The cells hold a slice, so the array's digest memo is off and every
// fold is direct.
func (s *Afek[T]) Fingerprint(h *sched.FP) { s.regs.Fingerprint(h) }

// Update implements Snapshot: it embeds a fresh scan in the written cell so
// that concurrent scanners can borrow it.
func (s *Afek[T]) Update(e *sched.Env, i int, v T) {
	view := s.Scan(e)
	seq := s.seqs[i] + 1
	s.regs.Write(e, i, afekCell[T]{val: v, seq: seq, view: view})
	s.seqs[i] = seq
}

// Scan implements Snapshot.
func (s *Afek[T]) Scan(e *sched.Env) []T {
	n := s.regs.Len()
	moved := make([]int, n)
	prev := s.collect(e)
	for {
		cur := s.collect(e)
		if seqsEqual(prev, cur) {
			return values(cur)
		}
		for j := 0; j < n; j++ {
			if cur[j].seq != prev[j].seq {
				moved[j]++
				if moved[j] >= 2 {
					// j completed an entire Update inside our scan; its
					// embedded view is a linearizable snapshot within our
					// interval.
					out := make([]T, n)
					copy(out, cur[j].view)
					return out
				}
			}
		}
		prev = cur
	}
}

func (s *Afek[T]) collect(e *sched.Env) []afekCell[T] {
	out := make([]afekCell[T], s.regs.Len())
	for i := range out {
		out[i] = s.regs.Read(e, i)
	}
	return out
}

func seqsEqual[T any](a, b []afekCell[T]) bool {
	for i := range a {
		if a[i].seq != b[i].seq {
			return false
		}
	}
	return true
}

func values[T any](cs []afekCell[T]) []T {
	out := make([]T, len(cs))
	for i, c := range cs {
		out[i] = c.val
	}
	return out
}
