package detector

import (
	"fmt"
	"testing"
	"testing/quick"

	"mpcn/internal/sched"
)

func runBoosted(t *testing.T, n, x int, cfg sched.Config) *sched.Result {
	t.Helper()
	cons := NewBoostedConsensus("bc", n, x)
	bodies := make([]sched.Proc, n)
	for i := range bodies {
		v := 100 + i
		bodies[i] = func(e *sched.Env) {
			e.Decide(cons.Propose(e, v))
		}
	}
	res, err := sched.Run(cfg, bodies)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func checkBoosted(t *testing.T, n int, res *sched.Result) {
	t.Helper()
	if res.DistinctDecided() > 1 {
		t.Fatalf("disagreement: %v", res.DecidedValues())
	}
	for i, o := range res.Outcomes {
		if !o.Decided {
			continue
		}
		v, ok := o.Value.(int)
		if !ok || v < 100 || v >= 100+n {
			t.Fatalf("proc %d decided %v, not a proposal", i, o.Value)
		}
	}
}

func TestBoostedConsensusCrashFree(t *testing.T) {
	for _, tc := range []struct{ n, x int }{{3, 1}, {4, 2}, {5, 3}, {6, 2}, {4, 4}} {
		for seed := int64(0); seed < 8; seed++ {
			res := runBoosted(t, tc.n, tc.x, sched.Config{Seed: seed})
			if res.NumDecided() != tc.n {
				t.Fatalf("n=%d x=%d seed=%d: decided %d (budget %v)",
					tc.n, tc.x, seed, res.NumDecided(), res.BudgetExhausted)
			}
			checkBoosted(t, tc.n, res)
		}
	}
}

// TestBoostedConsensusWeakOracle is the point of the Ωx oracle being
// adversarially weak: the leader set stabilizes to a window whose smaller
// members are crashed, so taking the set's minimum would never work — the
// correct member must drive the x-consensus funnel. n=6, x=3: crashing 0, 1
// and 2 mid-run leaves the window {1,2,3} with only process 3 live.
func TestBoostedConsensusWeakOracle(t *testing.T) {
	const n, x = 6, 3
	adv := sched.NewPlan(sched.NewRandom(5)).
		CrashAfterProcSteps(0, 8).
		CrashAfterProcSteps(1, 14).
		CrashAfterProcSteps(2, 20)
	res := runBoosted(t, n, x, sched.Config{Adversary: adv, MaxSteps: 1 << 20})
	if res.BudgetExhausted {
		t.Fatal("survivors blocked")
	}
	for i := 3; i < n; i++ {
		if !res.Outcomes[i].Decided {
			t.Fatalf("survivor %d did not decide", i)
		}
	}
	checkBoosted(t, n, res)
}

func TestBoostedConsensusWaitFree(t *testing.T) {
	// n-1 initial deaths: the lone survivor is the live witness of every
	// oracle window and must decide alone.
	const n, x = 5, 2
	adv := sched.NewCrashSet(sched.NewRandom(3), 0, 1, 2, 3)
	res := runBoosted(t, n, x, sched.Config{Adversary: adv, MaxSteps: 1 << 20})
	if res.BudgetExhausted {
		t.Fatal("survivor blocked")
	}
	if !res.Outcomes[4].Decided || res.Outcomes[4].Value != 104 {
		t.Fatalf("survivor outcome: %+v", res.Outcomes[4])
	}
}

func TestBoostedConsensusXEqualsOne(t *testing.T) {
	// x = 1 degenerates to Ω1-driven consensus.
	res := runBoosted(t, 4, 1, sched.Config{Seed: 2})
	if res.NumDecided() != 4 {
		t.Fatalf("decided %d of 4", res.NumDecided())
	}
	checkBoosted(t, 4, res)
}

// TestQuickBoostedConsensus: agreement and validity under random schedules,
// window sizes and crash patterns; termination with at least one survivor.
func TestQuickBoostedConsensus(t *testing.T) {
	f := func(seed int64, rawN, rawX, rawF, crashAt uint8) bool {
		n := int(rawN%5) + 2
		x := int(rawX)%n + 1
		fCount := int(rawF) % n
		cons := NewBoostedConsensus("bc", n, x)
		bodies := make([]sched.Proc, n)
		for i := range bodies {
			v := 100 + i
			bodies[i] = func(e *sched.Env) {
				e.Decide(cons.Propose(e, v))
			}
		}
		adv := sched.NewPlan(sched.NewRandom(seed))
		for vi := 0; vi < fCount; vi++ {
			adv.CrashAfterProcSteps(sched.ProcID(vi), int(crashAt%11)+1)
		}
		res, err := sched.Run(sched.Config{Adversary: adv, MaxSteps: 1 << 20}, bodies)
		if err != nil || res.BudgetExhausted {
			return false
		}
		if res.NumDecided() < n-fCount || res.DistinctDecided() > 1 {
			return false
		}
		for _, o := range res.Outcomes {
			if o.Decided {
				v, ok := o.Value.(int)
				if !ok || v < 100 || v >= 100+n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBoostedConsensusMisuse(t *testing.T) {
	t.Run("bad params", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("x > n accepted")
			}
		}()
		NewBoostedConsensus("bc", 2, 3)
	})
	t.Run("nil proposal", func(t *testing.T) {
		cons := NewBoostedConsensus("bc", 1, 1)
		bodies := []sched.Proc{func(e *sched.Env) { cons.Propose(e, nil) }}
		if _, err := sched.Run(sched.Config{}, bodies); err == nil {
			t.Fatal("nil proposal accepted")
		}
	})
}

func TestLeaderSetOracle(t *testing.T) {
	const n = 5
	var sets [][]sched.ProcID
	bodies := make([]sched.Proc, n)
	bodies[0] = func(e *sched.Env) {
		for i := 0; i < 2; i++ {
			e.Step("spin")
		}
	}
	bodies[1] = func(e *sched.Env) {
		for i := 0; i < 2; i++ {
			e.Step("spin")
		}
	}
	bodies[2] = func(e *sched.Env) {
		for i := 0; i < 20; i++ {
			e.Step("probe")
			set := e.LeaderSet(3)
			cp := make([]sched.ProcID, len(set))
			copy(cp, set)
			sets = append(sets, cp)
		}
		e.Decide(0)
	}
	bodies[3] = func(e *sched.Env) { e.Decide(0) }
	bodies[4] = func(e *sched.Env) { e.Decide(0) }
	adv := sched.NewPlan(sched.NewRoundRobin()).
		CrashAfterProcSteps(0, 1).
		CrashAfterProcSteps(1, 2)
	if _, err := sched.Run(sched.Config{Adversary: adv}, bodies); err != nil {
		t.Fatal(err)
	}
	first, last := sets[0], sets[len(sets)-1]
	if first[0] != 0 || first[2] != 2 {
		t.Fatalf("initial window = %v, want {0,1,2}", first)
	}
	// After 0 and 1 crash, the smallest live process is 2: window {0,1,2}
	// still contains it, so the (stable) window keeps the dead prefix —
	// the adversarial weakness under test.
	if last[0] != 0 || last[1] != 1 || last[2] != 2 {
		t.Fatalf("stabilized window = %v, want {0,1,2} with dead 0,1", last)
	}
}

func TestLeaderSetValidation(t *testing.T) {
	bodies := []sched.Proc{func(e *sched.Env) {
		e.Step("x")
		e.LeaderSet(2) // only 1 process exists
	}}
	if _, err := sched.Run(sched.Config{}, bodies); err == nil {
		t.Fatal("LeaderSet(x > n) accepted")
	}
}

// TestFormatSetMatchesFmt: the XC names render their port set exactly as
// fmt's %v did, so the objects' interned step labels are unchanged.
func TestFormatSetMatchesFmt(t *testing.T) {
	for _, set := range [][]sched.ProcID{nil, {0}, {0, 1}, {3, 4, 5}, {10, 11}} {
		if got, want := formatSet(set), fmt.Sprintf("%v", set); got != want {
			t.Errorf("formatSet(%v) = %q, want %q", set, got, want)
		}
	}
}
