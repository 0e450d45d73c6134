//go:build !race

package detector

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

// TestFoldAllocs: annCell (the announcement snapshot's component) and
// decCell (the decision register) fold without allocating, in Fingerprint
// and on an observed read.
func TestFoldAllocs(t *testing.T) {
	ann := snapshot.NewPrimitive[annCell]("ann", 3)
	dec := reg.NewWith[decCell]("dec", decCell{set: true, v: big})
	schedtest.Run(t, func(e *sched.Env) {
		for i := 0; i < 3; i++ {
			ann.Update(e, i, annCell{round: 3, v: big + i})
		}
	})
	for _, fp := range []struct {
		name string
		f    sched.Fingerprinter
	}{{"Primitive[annCell]", ann}, {"Register[decCell]", dec}} {
		var h sched.FP
		if n := testing.AllocsPerRun(100, func() { fp.f.Fingerprint(&h) }); n != 0 {
			t.Errorf("%s.Fingerprint: %v allocs, want 0", fp.name, n)
		}
	}
	if n := schedtest.Allocs(t, 100, func(e *sched.Env) { ann.ScanView(e) }); n != 0 {
		t.Errorf("Primitive[annCell].ScanView: %v allocs, want 0", n)
	}
	if n := schedtest.Allocs(t, 100, func(e *sched.Env) { dec.Read(e) }); n != 0 {
		t.Errorf("Register[decCell].Read: %v allocs, want 0", n)
	}
}
