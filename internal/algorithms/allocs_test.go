//go:build !race

package algorithms

import (
	"testing"

	"mpcn/internal/reg"
	"mpcn/internal/sched"
	"mpcn/internal/sched/schedtest"
	"mpcn/internal/snapshot"
)

// big is a value outside the runtime's preallocated small-integer boxes, so
// a fold that boxed it would allocate.
const big = 1 << 20

// TestFoldAllocs: renameCell folds without allocating, both stored by value
// (a register array of cells) and boxed in the any-typed snapshot memory the
// algorithms publish it in.
func TestFoldAllocs(t *testing.T) {
	cells := reg.NewArrayWith[renameCell]("cells", 3, renameCell{orig: big, prop: big + 1})
	mem := snapshot.NewPrimitive[any]("mem", 3)
	schedtest.Run(t, func(e *sched.Env) {
		for i := 0; i < 3; i++ {
			mem.Update(e, i, renameCell{orig: big + i, prop: big})
		}
	})
	for _, fp := range []struct {
		name string
		f    sched.Fingerprinter
	}{{"Array[renameCell]", cells}, {"Primitive[any]", mem}} {
		var h sched.FP
		if n := testing.AllocsPerRun(100, func() { fp.f.Fingerprint(&h) }); n != 0 {
			t.Errorf("%s.Fingerprint: %v allocs, want 0", fp.name, n)
		}
	}
	if n := schedtest.Allocs(t, 100, func(e *sched.Env) { cells.Read(e, 1) }); n != 0 {
		t.Errorf("Array[renameCell].Read: %v allocs, want 0", n)
	}
	if n := schedtest.Allocs(t, 100, func(e *sched.Env) { mem.ScanView(e) }); n != 0 {
		t.Errorf("Primitive[any].ScanView: %v allocs, want 0", n)
	}
}
