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

// TestOrbitFoldAllocs: under an orbit FP with a canon hook — a symmetry
// walk of a harness with a Canon — Fold of an any cell or a Fingerprinter
// cell and Value of a []any allocate nothing, on the root and on a lane: the
// canon sees the cell's parts, and the cell is not boxed.
func TestOrbitFoldAllocs(t *testing.T) {
	const big = 1 << 20
	var a any = big
	var slice any = []any{big, nil, "x", []any{big + 1}}
	cell := hookCell{n: big, v: slice}
	h := sched.NewOrbitFP(2, func(v any) any {
		if i, ok := v.(int); ok && i >= big {
			return "‹erased›"
		}
		return v
	})
	lane := h.Lane(1)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Fold(any)", func() { sched.Fold(h, &a) }},
		{"Fold(Fingerprinter)", func() { sched.Fold(h, &cell) }},
		{"lane Fold(any)", func() { sched.Fold(lane, &a) }},
		{"lane Fold(Fingerprinter)", func() { sched.Fold(lane, &cell) }},
		{"Value([]any)", func() { h.Value(slice) }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("orbit %s: %v allocs, want 0", c.name, n)
		}
	}
}

// regranter re-grants the process it granted last for as long as that
// process is runnable: under the direct protocol every step after a
// process's first is consulted and granted in place.
type regranter struct{ last sched.ProcID }

func (a *regranter) Next(v *sched.View) sched.Decision {
	for _, id := range v.Runnable {
		if id == a.last {
			return sched.Decision{Run: id}
		}
	}
	a.last = v.Runnable[0]
	return sched.Decision{Run: a.last}
}

// TestSelfGrantAllocs: a whole 3-process run whose adversary re-grants the
// running process at every step — the in-place consultation path — allocates
// nothing.
func TestSelfGrantAllocs(t *testing.T) {
	s, err := sched.NewSession(3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	labels := sched.InternIndexed("%s[%d]", "selfgrant", 16)
	body := func(e *sched.Env) {
		for _, l := range labels {
			e.StepL(l)
		}
	}
	bodies := []sched.Proc{body, body, body}
	adv := &regranter{}
	cfg := sched.Config{Adversary: adv}
	run := func() {
		adv.last = -1
		res, err := s.Run(cfg, bodies)
		if err != nil || res.Steps != 3*len(labels) {
			t.Fatalf("run: %v %+v", err, res)
		}
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("self-granted run: %v allocs, want 0", n)
	}
}
