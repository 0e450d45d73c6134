//go:build !race

package object

import (
	"testing"

	"mpcn/internal/sched"
	"mpcn/internal/sched/schedtest"
)

// big is a value outside the runtime's preallocated small-integer boxes, so
// a fold that boxed it would allocate.
const big = 1 << 20

// TestFoldAllocs: fingerprinting the shared objects and one observed read of
// each stored value allocate nothing.
func TestFoldAllocs(t *testing.T) {
	q := NewQueue[int]("q", big, big+1)
	st := NewStack[int]("s", big, big+1)
	cas := NewCompareAndSwap[int]("cas", big)
	xc := NewXConsensus("xc", 2, nil)
	xc.decided, xc.value, xc.proposed[0] = true, any(big), true
	ml := NewMLSetAgreement("ml", 3, 2, nil)
	ml.decided = []any{big, big + 1}
	for _, fp := range []struct {
		name string
		f    sched.Fingerprinter
	}{{"Queue[int]", q}, {"Stack[int]", st}, {"CompareAndSwap[int]", cas}, {"XConsensus", xc}, {"MLSetAgreement", ml}} {
		var h sched.FP
		if n := testing.AllocsPerRun(100, func() { fp.f.Fingerprint(&h) }); n != 0 {
			t.Errorf("%s.Fingerprint: %v allocs, want 0", fp.name, n)
		}
	}
	if n := schedtest.Allocs(t, 100, func(e *sched.Env) { cas.Read(e) }); n != 0 {
		t.Errorf("CompareAndSwap[int].Read: %v allocs, want 0", n)
	}
	if n := schedtest.Allocs(t, 100, func(e *sched.Env) { cas.CompareAndSwap(e, big, big) }); n != 0 {
		t.Errorf("CompareAndSwap[int].CompareAndSwap: %v allocs, want 0", n)
	}
}
