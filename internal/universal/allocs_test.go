//go:build !race

package universal

import (
	"testing"

	"mpcn/internal/sched"
	"mpcn/internal/sched/schedtest"
)

// big is a value outside the runtime's preallocated small-integer boxes, so
// a fold that boxed it would allocate.
const big = 1 << 20

// TestFoldAllocs: the announce board's *opDesc cells — announced and empty —
// fold their contents without allocating, in Fingerprint and on an
// observed read.
func TestFoldAllocs(t *testing.T) {
	u := New[int, int, int]("u", []sched.ProcID{0, 1, 2}, 0,
		func(s, op int) (int, int) { return s + op, s })
	schedtest.Run(t, func(e *sched.Env) {
		u.announce.Write(e, 1, &opDesc[int]{port: 1, seq: 1, op: big})
		u.consAt(0).Propose(e, &opDesc[int]{port: 0, seq: 1, op: big + 1})
	})
	var h sched.FP
	if n := testing.AllocsPerRun(100, func() { u.Fingerprint(&h) }); n != 0 {
		t.Errorf("Universal.Fingerprint: %v allocs, want 0", n)
	}
	for _, i := range []int{0, 1} {
		if n := schedtest.Allocs(t, 100, func(e *sched.Env) { u.announce.Read(e, i) }); n != 0 {
			t.Errorf("announce[%d].Read: %v allocs, want 0", i, n)
		}
	}
}
