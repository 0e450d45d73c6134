package core

import (
	"runtime"
	"testing"
	"time"

	"mpcn/internal/algorithms"
	"mpcn/internal/bg"
	"mpcn/internal/sched"
	"mpcn/internal/tasks"
)

// TestOneShotSimsLeakNoGoroutines: a one-shot simulation (bg.Simulate or
// ForwardSim, which build an engine, run it once and drop it) leaves no
// simulator thread behind, whether its run ends, loses a simulator to a
// crash or runs out of steps. Every run leaves its threads parked on their
// coroutines, each a goroutine of its own, so an engine whose Run did not
// close them shows up in runtime.NumGoroutine.
func TestOneShotSimsLeakNoGoroutines(t *testing.T) {
	src, dst := asm(t, 4, 3, 2), asm(t, 4, 1, 1)
	inputs := tasks.DistinctInputs(4)
	before := settledGoroutines()
	exhausted, crashed := 0, 0
	for i := 0; i < 200; i++ {
		seed := int64(i)
		cfg := sched.Config{Adversary: sched.NewRandom(seed), MaxSteps: 20 + 10*(i%40)}
		if i%3 == 0 {
			cfg.Adversary = sched.NewCrashSet(sched.NewRandom(seed), sched.ProcID(seed%2))
		}
		var r *bg.Result
		var err error
		if i%2 == 0 {
			r, err = bg.Simulate(algorithms.SnapshotKSet{T: 1}, inputs, 1, cfg)
		} else {
			r, err = ForwardSim(algorithms.GroupedKSet{K: 2, X: 2}, inputs, src, dst, cfg)
		}
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if r.Sched.BudgetExhausted {
			exhausted++
		}
		if r.Sched.Crashes > 0 {
			crashed++
		}
	}
	if exhausted == 0 || crashed == 0 || exhausted == 200 {
		t.Fatalf("runs not varied: %d budget-exhausted, %d crashed of 200", exhausted, crashed)
	}
	if got := settledGoroutines(); got > before {
		t.Fatalf("goroutines %d -> %d over 200 one-shot simulations", before, got)
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has held still for
// a few polls (or after a second at most), so goroutines of earlier tests
// that are still winding down do not count, while a leaked thread, which
// never exits, does.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	deadline := time.Now().Add(time.Second)
	for still := 0; still < 5 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}
