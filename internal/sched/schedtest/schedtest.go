// Package schedtest is test support for code that runs on the sched
// runtime: allocation checks of shared-object operations, which need a live
// process to take their steps.
package schedtest

import (
	"testing"

	"mpcn/internal/sched"
)

// sprinter grants the only process every step in one sprint, so the steps of
// a measured operation are consumed in place: no adversary consultation, no
// coroutine switch, nothing allocated by the runtime itself.
type sprinter struct{}

func (sprinter) Next(v *sched.View) sched.Decision {
	return sched.Decision{Run: v.Runnable[0], Sprint: true}
}

// Run runs body as the only process of a run with observation digests on
// (sched.Config.Observe) and every step granted in place; tests use it to
// drive shared objects into a state before measuring them.
func Run(t testing.TB, body func(e *sched.Env)) {
	t.Helper()
	s, err := sched.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(sched.Config{Adversary: sprinter{}, MaxSteps: 1 << 30, Observe: true},
		[]sched.Proc{func(e *sched.Env) { body(e) }})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Outcomes[0].Status; st != sched.StatusHalted {
		t.Fatalf("body ended %v", st)
	}
}

// Allocs reports testing.AllocsPerRun(runs, op) measured inside Run's body,
// so op may take steps and every value it reads is folded by
// sched.Observe. Allocation counts are meaningless under the race detector;
// callers build their tests with !race.
func Allocs(t testing.TB, runs int, op func(e *sched.Env)) float64 {
	t.Helper()
	var allocs float64
	Run(t, func(e *sched.Env) {
		allocs = testing.AllocsPerRun(runs, func() { op(e) })
	})
	return allocs
}
