package sched

import "testing"

// memoCells is a memoizing object: cells behind a Memo, cell i routed
// through lane i.
type memoCells[T any] struct {
	cells []T
	memo  Memo
}

func newMemoCells[T any](cells ...T) *memoCells[T] {
	return &memoCells[T]{cells: cells, memo: NewMemo[T]()}
}

func (o *memoCells[T]) fold(h *FP) {
	h.Int(len(o.cells))
	for i := range o.cells {
		Fold(h.Lane(ProcID(i)), &o.cells[i])
	}
}

func (o *memoCells[T]) Fingerprint(h *FP) {
	if f := o.memo.Begin(h); f != nil {
		o.fold(f)
	}
	o.memo.End(h)
}

func (o *memoCells[T]) set(i int, v T) {
	o.cells[i] = v
	o.memo.Invalidate()
}

// TestMemoPlain: on a plain FP a memoized object folds its digest as the lane
// pair of a fold from zero, the same on a miss and on a hit; a write
// invalidates it; and equal states fold equal words while different states
// do not.
func TestMemoPlain(t *testing.T) {
	o := newMemoCells(1, 2, 3)
	sum := func(o *memoCells[int]) Fingerprint {
		var h FP
		h.Word(7) // the parent's own words before the object's
		o.Fingerprint(&h)
		return h.Sum()
	}
	var direct FP
	o.fold(&direct)
	var want FP
	want.Word(7)
	want.Word(direct.a)
	want.Word(direct.b)
	miss, hit := sum(o), sum(o)
	if miss != want.Sum() || hit != miss {
		t.Fatalf("miss %v, hit %v, want the lane pair of the direct fold %v", miss, hit, want.Sum())
	}
	o.set(1, 5)
	if got := sum(o); got == miss {
		t.Fatal("a write left the cached digest in place")
	}
	if got, fresh := sum(o), sum(newMemoCells(1, 5, 3)); got != fresh {
		t.Fatalf("written object %v, fresh object in the same state %v", got, fresh)
	}
	o.set(1, 2)
	if got := sum(o); got != miss {
		t.Fatalf("back in the first state: %v, want %v", got, miss)
	}
}

// TestMemoOrbitBypass: an orbit FP, and a memo over cells that can reach
// memory the object does not own, fold the object directly, word for word,
// and leave the cache alone.
func TestMemoOrbitBypass(t *testing.T) {
	o := newMemoCells(1, 2, 3)
	var plain FP
	o.Fingerprint(&plain) // fills the cache
	got, want := NewOrbitFP(3, nil), NewOrbitFP(3, nil)
	o.Fingerprint(got)
	o.fold(want)
	if got.Sum() != want.Sum() {
		t.Fatal("orbit fold of a memoized object differs from its direct fold")
	}
	var again FP
	o.Fingerprint(&again)
	if again.Sum() != plain.Sum() {
		t.Fatal("an orbit fold changed the plain cache")
	}

	s := newMemoCells([]int{1}, []int{2})
	var h, d FP
	s.Fingerprint(&h)
	s.fold(&d)
	if h.Sum() != d.Sum() {
		t.Fatal("a memo over slice cells did not fold directly")
	}
	s.cells[0][0] = 9 // a write the object never sees
	h, d = FP{}, FP{}
	s.Fingerprint(&h)
	s.fold(&d)
	if h.Sum() != d.Sum() {
		t.Fatal("a memo over slice cells served a stale digest")
	}
}

// TestNewMemoOwnership: which cell types a memo covers.
func TestNewMemoOwnership(t *testing.T) {
	type owned struct {
		n int
		v any
		s string
		a [2]bool
	}
	type aliased struct {
		n   int
		row [2][]int
	}
	for _, c := range []struct {
		name string
		memo Memo
		off  bool
	}{
		{"int", NewMemo[int](), false},
		{"any", NewMemo[any](), false},
		{"struct of scalars, any, string and array", NewMemo[owned](), false},
		{"slice", NewMemo[[]int](), true},
		{"pointer", NewMemo[*int](), true},
		{"map", NewMemo[map[int]bool](), true},
		{"struct holding slices in an array", NewMemo[aliased](), true},
		{"func", NewMemo[func()](), true},
	} {
		if c.memo.off != c.off {
			t.Errorf("NewMemo[%s]: off = %v, want %v", c.name, c.memo.off, c.off)
		}
	}
}
