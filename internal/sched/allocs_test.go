//go:build !race

package sched_test

import (
	"testing"

	"mpcn/internal/sched"
	"mpcn/internal/sched/schedtest"
)

type hookCell struct {
	n int
	v any
}

func (c hookCell) Fingerprint(h *sched.FP) {
	h.Int(c.n)
	h.Value(c.v)
}

// TestFoldAllocs: Fold, Value on []any and Observe allocate nothing on the
// in-repository value shapes — scalars outside the runtime's small-integer
// boxes, any-typed cells, []any proposals and Fingerprinter cells.
func TestFoldAllocs(t *testing.T) {
	const big = 1 << 20
	i, s := big, "mem[3]"
	var a any = big
	var slice any = []any{big, nil, "x", []any{big + 1}}
	cell := hookCell{n: big, v: slice}
	var h sched.FP
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Fold(int)", func() { sched.Fold(&h, &i) }},
		{"Fold(string)", func() { sched.Fold(&h, &s) }},
		{"Fold(any)", func() { sched.Fold(&h, &a) }},
		{"Fold(Fingerprinter)", func() { sched.Fold(&h, &cell) }},
		{"Value([]any)", func() { h.Value(slice) }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %v allocs, want 0", c.name, n)
		}
	}
	if n := schedtest.Allocs(t, 100, func(e *sched.Env) {
		sched.Observe(e, &i)
		sched.Observe(e, &cell)
		sched.ObserveBool(e, true)
		e.Leader()
		e.TotalSteps()
	}); n != 0 {
		t.Errorf("observations: %v allocs, want 0", n)
	}
}
