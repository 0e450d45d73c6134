//go:build !race

package bg

import (
	"testing"

	"mpcn/internal/sched"
	"mpcn/internal/sched/schedtest"
	"mpcn/internal/snapshot"
)

// big is a value outside the runtime's preallocated small-integer boxes, so
// a fold that boxed it would allocate.
const big = 1 << 20

// TestFoldAllocs: MEM's memRow components fold without allocating, in the
// snapshot's Fingerprint and on an observed scan.
func TestFoldAllocs(t *testing.T) {
	mem := snapshot.NewPrimitive[memRow]("MEM", 2)
	schedtest.Run(t, func(e *sched.Env) {
		mem.Update(e, 0, memRow{{val: big, sn: 1}, {val: []any{big, nil}, sn: 2}, {}})
	})
	var h sched.FP
	if n := testing.AllocsPerRun(100, func() { mem.Fingerprint(&h) }); n != 0 {
		t.Errorf("Primitive[memRow].Fingerprint: %v allocs, want 0", n)
	}
	if n := schedtest.Allocs(t, 100, func(e *sched.Env) { mem.ScanView(e) }); n != 0 {
		t.Errorf("Primitive[memRow].ScanView: %v allocs, want 0", n)
	}
}
