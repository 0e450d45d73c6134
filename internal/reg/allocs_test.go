//go:build !race

package reg

import (
	"testing"

	"mpcn/internal/sched"
	"mpcn/internal/sched/schedtest"
)

// big is a value outside the runtime's preallocated small-integer boxes, so
// a fold that boxed it would allocate.
const big = 1 << 20

// TestFoldAllocs: fingerprinting every register flavour and one observed
// read of each allocate nothing — values fold in place through sched.Fold.
func TestFoldAllocs(t *testing.T) {
	r := NewWith[int]("r", big)
	ra := NewWith[any]("ra", big)
	a := NewArrayWith[int]("a", 3, big)
	reg := NewRegularArray[int]("g", 3)
	tso := NewTSOArray[int]("t", 3, 2)
	for i := 0; i < 3; i++ {
		reg.cells[i], reg.visible[i], tso.mem[i] = big, big+1, big
	}
	tso.buf[1] = append(tso.buf[1], tsoEntry[int]{cell: 2, v: big})
	for _, fp := range []struct {
		name string
		f    sched.Fingerprinter
	}{{"Register[int]", r}, {"Register[any]", ra}, {"Array[int]", a}, {"RegularArray[int]", reg}, {"TSOArray[int]", tso}} {
		var h sched.FP
		if n := testing.AllocsPerRun(100, func() { fp.f.Fingerprint(&h) }); n != 0 {
			t.Errorf("%s.Fingerprint: %v allocs, want 0", fp.name, n)
		}
	}
	for _, rd := range []struct {
		name string
		op   func(e *sched.Env)
	}{
		{"Register[int].Read", func(e *sched.Env) { r.Read(e) }},
		{"Register[any].Read", func(e *sched.Env) { ra.Read(e) }},
		{"Array[int].Read", func(e *sched.Env) { a.Read(e, 1) }},
		{"RegularArray[int].Read", func(e *sched.Env) { reg.Read(e, 1) }},
		{"TSOArray[int].Read", func(e *sched.Env) { tso.Read(e, 1) }},
	} {
		if n := schedtest.Allocs(t, 100, rd.op); n != 0 {
			t.Errorf("%s: %v allocs, want 0", rd.name, n)
		}
	}
}
