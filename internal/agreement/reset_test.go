package agreement

import (
	"testing"

	"mpcn/internal/object"
	"mpcn/internal/sched"
)

// TestResetMatchesFresh: a reset shared object fingerprints as a fresh one
// does, before a run and after the same seeded run on each, so reusing one
// object per harness session leaves the dedup digests unchanged. The
// x_safe_agreement case covers consensus objects an earlier run built and
// the next run never touches; the compare&swap case covers the register the
// cas harness reuses.
func TestResetMatchesFresh(t *testing.T) {
	type resettable interface {
		Reset()
		sched.Fingerprinter
	}
	type agreement interface {
		resettable
		Propose(e *sched.Env, v any)
		TryDecide(e *sched.Env) (any, bool)
	}
	propose := func(o resettable, e *sched.Env, i int) {
		a := o.(agreement)
		a.Propose(e, 100+i)
		a.TryDecide(e)
	}
	const n = 3
	for _, c := range []struct {
		name string
		mk   func() resettable
		body func(o resettable, e *sched.Env, i int)
	}{
		{"safe", func() resettable { return NewSafeAgreement("sa", n) }, propose},
		{"xsafe", func() resettable { return NewXSafeFactory(n, 2, nil).New("xsa") }, propose},
		{"cas", func() resettable { return object.NewCompareAndSwap("cas", 0) }, func(o resettable, e *sched.Env, i int) {
			c := o.(*object.CompareAndSwap[int])
			v := c.Read(e)
			c.CompareAndSwap(e, v, v+1+i)
		}},
	} {
		run := func(o resettable, seed int64) sched.Fingerprint {
			bodies := make([]sched.Proc, n)
			for i := range bodies {
				bodies[i] = func(e *sched.Env) { c.body(o, e, i) }
			}
			if _, err := sched.Run(sched.Config{Seed: seed, MaxCrashes: 1}, bodies); err != nil {
				t.Fatal(err)
			}
			return digest(o)
		}
		reused := c.mk()
		for seed := int64(1); seed <= 20; seed++ {
			reused.Reset()
			if digest(reused) != digest(c.mk()) {
				t.Fatalf("%s: a reset object folds unlike a fresh one after seed %d", c.name, seed-1)
			}
			if got, want := run(reused, seed), run(c.mk(), seed); got != want {
				t.Fatalf("%s seed %d: reset object's run digests %v, fresh %v", c.name, seed, got, want)
			}
		}
	}
}

func digest(f sched.Fingerprinter) sched.Fingerprint {
	var h sched.FP
	f.Fingerprint(&h)
	return h.Sum()
}
