// Package reg provides atomic read/write registers over the sched runtime.
//
// Registers are the consensus-number-1 base objects of the ASM(n, t, x)
// model. Every operation marks exactly one linearization step via
// sched.Env.StepL, so the adversary schedules register accesses at the same
// granularity the paper's model prescribes. Step labels are interned once at
// construction ("name.read", "name.write", "name[i].read", ...), so register
// accesses perform no per-step string work.
package reg

import (
	"fmt"

	"mpcn/internal/sched"
)

// Register is a multi-writer multi-reader atomic register holding a value of
// type T. The zero value is not usable; construct with New or NewWith.
type Register[T any] struct {
	name   string
	readL  sched.Label
	writeL sched.Label
	v      T
	memo   sched.Memo // the plain-mode digest of v, between writes
}

// New returns a register named name holding the zero value of T.
func New[T any](name string) *Register[T] {
	return &Register[T]{
		name:   name,
		readL:  sched.Intern(name + ".read"),
		writeL: sched.Intern(name + ".write"),
		memo:   sched.NewMemo[T](),
	}
}

// NewWith returns a register named name initialized to init.
func NewWith[T any](name string, init T) *Register[T] {
	r := New[T](name)
	r.v = init
	return r
}

// Reset returns the register to the zero value of T, keeping its step
// labels.
func (r *Register[T]) Reset() {
	var zero T
	r.v = zero
	r.memo.Invalidate()
}

// Read atomically reads the register.
func (r *Register[T]) Read(e *sched.Env) T {
	e.StepL(r.readL)
	sched.Observe(e, &r.v)
	return r.v
}

// Write atomically writes v.
func (r *Register[T]) Write(e *sched.Env, v T) {
	e.StepL(r.writeL)
	r.v = v
	r.memo.Invalidate()
}

// Fingerprint implements sched.Fingerprinter: it folds the register's
// identity (its interned write label) and current value, memoized between
// writes (sched.Memo).
func (r *Register[T]) Fingerprint(h *sched.FP) {
	if f := r.memo.Begin(h); f != nil {
		f.Label(r.writeL)
		sched.Fold(f, &r.v)
	}
	r.memo.End(h)
}

// Array is an array of atomic registers sharing a common name prefix. Cell i
// is addressed independently; each access is one atomic step.
type Array[T any] struct {
	name   string
	readL  []sched.Label
	writeL []sched.Label
	cells  []T
	init   T          // every cell's value at construction and after Reset
	memo   sched.Memo // the plain-mode digest of cells, between writes
}

// NewArray returns an n-cell register array holding zero values.
func NewArray[T any](name string, n int) *Array[T] {
	if n <= 0 {
		panic(fmt.Sprintf("reg: array %q must have positive size, got %d", name, n))
	}
	return &Array[T]{
		name:   name,
		readL:  sched.InternIndexed("%s[%d].read", name, n),
		writeL: sched.InternIndexed("%s[%d].write", name, n),
		cells:  make([]T, n),
		memo:   sched.NewMemo[T](),
	}
}

// NewArrayWith returns an n-cell register array with every cell set to init.
func NewArrayWith[T any](name string, n int, init T) *Array[T] {
	a := NewArray[T](name, n)
	a.init = init
	a.Reset()
	return a
}

// Reset returns every cell to its value at construction (init for
// NewArrayWith, the zero value otherwise), keeping the step labels, so a
// harness can reuse one array across runs.
func (a *Array[T]) Reset() {
	for i := range a.cells {
		a.cells[i] = a.init
	}
	a.memo.Invalidate()
}

// Len returns the number of cells.
func (a *Array[T]) Len() int { return len(a.cells) }

// Read atomically reads cell i.
func (a *Array[T]) Read(e *sched.Env, i int) T {
	e.StepL(a.readL[i])
	sched.Observe(e, &a.cells[i])
	return a.cells[i]
}

// Write atomically writes v to cell i.
func (a *Array[T]) Write(e *sched.Env, i int, v T) {
	e.StepL(a.writeL[i])
	a.cells[i] = v
	a.memo.Invalidate()
}

// Fingerprint implements sched.Fingerprinter: it folds the array's identity
// and every cell value in index order. Cell i routes through digest lane i,
// so arrays indexed by process (cell i written by process i) canonicalize
// under symmetry reduction; on a plain FP, Lane is the identity and the fold
// is the exact in-order fold, memoized between writes (sched.Memo).
func (a *Array[T]) Fingerprint(h *sched.FP) {
	if f := a.memo.Begin(h); f != nil {
		f.Label(a.writeL[0])
		for i := range a.cells {
			sched.Fold(f.Lane(sched.ProcID(i)), &a.cells[i])
		}
	}
	a.memo.End(h)
}

// Collect reads every cell in index order (one step per cell, i.e. a
// non-atomic read of the whole array) and returns a fresh slice.
func (a *Array[T]) Collect(e *sched.Env) []T {
	out := make([]T, len(a.cells))
	for i := range a.cells {
		out[i] = a.Read(e, i)
	}
	return out
}
