//go:build !race

package agreement

import (
	"testing"

	"mpcn/internal/sched"
	"mpcn/internal/sched/schedtest"
	"mpcn/internal/snapshot"
)

// big is a value outside the runtime's preallocated small-integer boxes, so
// a fold that boxed it would allocate.
const big = 1 << 20

// TestFoldAllocs: caCell and saCell fold without allocating, both inside
// their Primitive snapshots' Fingerprint and on an observed scan.
func TestFoldAllocs(t *testing.T) {
	ca := snapshot.NewPrimitive[caCell]("ca", 3)
	sa := snapshot.NewPrimitive[saCell]("sa", 3)
	schedtest.Run(t, func(e *sched.Env) {
		for i := 0; i < 3; i++ {
			ca.Update(e, i, caCell{set: true, v: big + i})
			sa.Update(e, i, saCell{value: []any{big, nil, big + i}, level: saStable})
		}
	})
	for _, fp := range []struct {
		name string
		f    sched.Fingerprinter
	}{{"Primitive[caCell]", ca}, {"Primitive[saCell]", sa}} {
		var h sched.FP
		if n := testing.AllocsPerRun(100, func() { fp.f.Fingerprint(&h) }); n != 0 {
			t.Errorf("%s.Fingerprint: %v allocs, want 0", fp.name, n)
		}
	}
	if n := schedtest.Allocs(t, 100, func(e *sched.Env) { ca.ScanView(e) }); n != 0 {
		t.Errorf("Primitive[caCell].ScanView: %v allocs, want 0", n)
	}
	if n := schedtest.Allocs(t, 100, func(e *sched.Env) { sa.ScanView(e) }); n != 0 {
		t.Errorf("Primitive[saCell].ScanView: %v allocs, want 0", n)
	}
}

// TestMemoMissAllocs: a safe_agreement object whose memoized digest was
// invalidated re-folds SM and the proposer set without allocating, and so
// does a hit.
func TestMemoMissAllocs(t *testing.T) {
	sa := NewSafeAgreement("sa", 3)
	schedtest.Run(t, func(e *sched.Env) { sa.Propose(e, big) })
	var h sched.FP
	if n := testing.AllocsPerRun(100, func() { sa.memo.Invalidate(); sa.Fingerprint(&h) }); n != 0 {
		t.Errorf("SafeAgreement miss: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sa.Fingerprint(&h) }); n != 0 {
		t.Errorf("SafeAgreement hit: %v allocs, want 0", n)
	}
}
