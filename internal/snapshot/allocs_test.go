//go:build !race

package snapshot

import (
	"testing"

	"mpcn/internal/reg"
	"mpcn/internal/sched"
	"mpcn/internal/sched/schedtest"
)

// big is a value outside the runtime's preallocated small-integer boxes, so
// a fold that boxed it would allocate.
const big = 1 << 20

// TestFoldAllocs: fingerprinting the snapshot objects and one observed read
// of each — Primitive's components, afekCell and isCell — allocate nothing.
func TestFoldAllocs(t *testing.T) {
	p := NewPrimitive[int]("p", 3)
	af := NewAfek[int]("af", 3)
	af.regs = reg.NewArrayWith[afekCell[int]]("af", 3, afekCell[int]{val: big, seq: 1, view: []int{big, big + 1, big + 2}})
	im := NewImmediate[int]("im", 3)
	im.cells = reg.NewArrayWith[isCell[int]]("im", 3, isCell[int]{level: 2, val: big})
	im.done[1] = true
	for i := 0; i < 3; i++ {
		p.cells[i] = big + i
	}
	for _, fp := range []struct {
		name string
		f    sched.Fingerprinter
	}{{"Primitive[int]", p}, {"Afek[int]", af}, {"Immediate[int]", im}} {
		var h sched.FP
		if n := testing.AllocsPerRun(100, func() { fp.f.Fingerprint(&h) }); n != 0 {
			t.Errorf("%s.Fingerprint: %v allocs, want 0", fp.name, n)
		}
	}
	for _, rd := range []struct {
		name string
		op   func(e *sched.Env)
	}{
		{"Primitive[int].ScanView", func(e *sched.Env) { p.ScanView(e) }},
		{"afekCell read", func(e *sched.Env) { af.regs.Read(e, 1) }},
		{"isCell read", func(e *sched.Env) { im.cells.Read(e, 1) }},
	} {
		if n := schedtest.Allocs(t, 100, rd.op); n != 0 {
			t.Errorf("%s: %v allocs, want 0", rd.name, n)
		}
	}
}

// TestMemoMissAllocs: a Primitive whose memoized digest was invalidated
// re-folds its components without allocating.
func TestMemoMissAllocs(t *testing.T) {
	p := NewPrimitive[any]("p", 3)
	for i := range p.cells {
		p.cells[i] = []any{big + i, "x"}
	}
	var h sched.FP
	if n := testing.AllocsPerRun(100, func() { p.memo.Invalidate(); p.Fingerprint(&h) }); n != 0 {
		t.Errorf("Primitive[any] miss: %v allocs, want 0", n)
	}
}
