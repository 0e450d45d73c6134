package sched

import "reflect"

// Memo caches a shared object's plain-mode digest between the writes that
// change it. At a decision boundary an object's state has usually not moved
// since the last fingerprint (a step writes at most one snapshot component,
// register or log entry), so re-folding all of it is waste. A memoizing
// object keeps a Memo next to its state and folds through it:
//
//	func (o *Obj) Fingerprint(h *sched.FP) {
//		if f := o.memo.Begin(h); f != nil {
//			... fold o's state into f ...
//		}
//		o.memo.End(h)
//	}
//
// and calls Invalidate on every write to state the digest covers and on
// Reset. On a plain FP the state folds from zero into the memo's own
// sub-accumulator, and the parent receives the sub-accumulator's raw lane
// pair, as ControlPoints folds observation digests; while the memo stays
// valid, Begin returns nil and End folds the cached pair alone. An orbit FP
// bypasses the memo (the object's cells must reach the parent's lanes and
// canon hook), and so does a memo built for a cell type that can reach
// memory the object does not own (NewMemo).
//
// The sub-accumulator lives in the Memo, inside the object: a local would
// escape through Fold and be heap-allocated at every miss.
//
// A memoized digest differs in value from the direct fold of the same state,
// but two states fold equal words through the memo exactly when their direct
// folds are equal (up to a 128-bit collision of the sub-digest), so which
// states a visited store merges does not change.
type Memo struct {
	sub   FP   // the object's words folded from zero
	valid bool // sub holds the current state's digest
	off   bool // every fold goes to the parent directly
}

// NewMemo returns an invalid memo for an object whose digest folds cells of
// type T. The memo is off, and the object folds directly every time, when T
// holds a slice, map, pointer, channel or func anywhere in its structure:
// such a cell can reach memory that someone else may write without going
// through the object, which would leave a cached digest stale. Strings and
// interface values count as owned; every value stored through an any cell
// in this repository is immutable once written.
func NewMemo[T any]() Memo {
	return Memo{off: !ownsBytes(reflect.TypeFor[T]())}
}

// ownsBytes reports whether a value of type t is self-contained: no slice,
// map, pointer, channel or func in it or in any struct field or array
// element it holds.
func ownsBytes(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer, reflect.Chan, reflect.Func:
		return false
	case reflect.Array:
		return ownsBytes(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !ownsBytes(t.Field(i).Type) {
				return false
			}
		}
	}
	return true
}

// Invalidate drops the cached digest. Call it on every write to state the
// digest covers, before the writer's next step, and on Reset.
func (m *Memo) Invalidate() { m.valid = false }

// Begin starts a fold of the object into h and returns the FP to fold the
// object's state into: h itself in orbit mode or when the memo is off, the
// zeroed sub-accumulator on a plain miss, and nil on a plain hit, when there
// is nothing to fold. Every Begin is followed by End on the same h.
func (m *Memo) Begin(h *FP) *FP {
	if h.orb != nil || m.off {
		return h
	}
	if m.valid {
		return nil
	}
	m.sub = FP{}
	return &m.sub
}

// End completes the fold Begin started: on a plain FP it marks the digest
// valid and folds its lane pair into h.
func (m *Memo) End(h *FP) {
	if h.orb != nil || m.off {
		return
	}
	m.valid = true
	h.Word(m.sub.a)
	h.Word(m.sub.b)
}

// ObserveMemo is Observe for a read that returns all of an object's state at
// once (a whole-snapshot scan): it folds o's memoized digest, the pair End
// folds, into the calling process's observation digest, in place of one
// Observe per cell. o is the object and m the memo its Fingerprint folds
// through. A stale memo is refolded here, so the object's next Fingerprint
// hits it. ObserveMemo reports false, and folds nothing, when m is off: the
// caller then observes cell by cell. Call it only while Env.Observing
// reports true. Two states fold equal words here exactly when their
// per-cell observations are equal (up to a 128-bit collision of the
// sub-digest), so which states a visited store merges does not change.
func ObserveMemo(e *Env, m *Memo, o Fingerprinter) bool {
	if m.off {
		return false
	}
	o.Fingerprint(&e.s.obs[e.id])
	return true
}
