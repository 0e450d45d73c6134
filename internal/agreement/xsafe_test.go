package agreement

import (
	"fmt"
	"testing"
	"testing/quick"

	"mpcn/internal/explore"
	"mpcn/internal/hierarchy"
	"mpcn/internal/object"
	"mpcn/internal/sched"
)

func TestXCompeteAtMostXWinners(t *testing.T) {
	f := func(seed int64, rawN, rawX uint8) bool {
		n := int(rawN%6) + 1
		x := int(rawX%6) + 1
		comp := NewXCompete("xc", x, nil)
		winners := 0
		bodies := make([]sched.Proc, n)
		for i := range bodies {
			bodies[i] = func(e *sched.Env) {
				if comp.Compete(e) {
					winners++
				}
				e.Decide(0)
			}
		}
		if _, err := sched.Run(sched.Config{Seed: seed}, bodies); err != nil {
			return false
		}
		if n <= x {
			// With at most x invokers, every non-crashed one wins.
			return winners == n
		}
		return winners == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestXCompeteSurvivorsWinDespiteCrashes(t *testing.T) {
	// x = 3 invokers, one crashes mid-cascade: the two survivors must still
	// obtain true (Figure 5's termination behaviour for <= x invokers).
	const x = 3
	comp := NewXCompete("xc", x, nil)
	won := make([]bool, x)
	bodies := make([]sched.Proc, x)
	for i := range bodies {
		i := i
		bodies[i] = func(e *sched.Env) {
			won[i] = comp.Compete(e)
			e.Decide(0)
		}
	}
	adv := sched.NewPlan(sched.NewRoundRobin()).CrashOnLabel(0, "TS[0].test&set", 1)
	res, err := sched.Run(sched.Config{Adversary: adv}, bodies)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < x; i++ {
		if res.Outcomes[i].Status != sched.StatusDecided || !won[i] {
			t.Fatalf("survivor %d: status=%v won=%v", i, res.Outcomes[i].Status, won[i])
		}
	}
}

func TestXCompeteTASFromXConsensus(t *testing.T) {
	// Ablation wiring: the cascade built from x-consensus-backed test&set
	// (the [19] construction) behaves identically, and so it does again
	// after Reset, which rebuilds these test&set objects (they have no Reset
	// of their own).
	provider := func(name string) TAS {
		return hierarchy.NewTASFromConsensus(
			hierarchy.NewFromXConsensus(object.NewXConsensus(name+".cons", 8, nil)))
	}
	const n, x = 5, 2
	comp := NewXCompete("xc", x, provider)
	winners := 0
	bodies := make([]sched.Proc, n)
	for i := range bodies {
		bodies[i] = func(e *sched.Env) {
			if comp.Compete(e) {
				winners++
			}
			e.Decide(0)
		}
	}
	for run := 0; run < 2; run++ {
		if run > 0 {
			comp.Reset()
			winners = 0
		}
		if _, err := sched.Run(sched.Config{Seed: 17}, bodies); err != nil {
			t.Fatal(err)
		}
		if winners != x {
			t.Fatalf("run %d: winners = %d, want %d", run, winners, x)
		}
	}
}

func xsaBody(xs *XSafeAgreement, v any) sched.Proc {
	return func(e *sched.Env) {
		xs.Propose(e, v)
		e.Decide(xs.Decide(e))
	}
}

func TestXSafeAgreementCrashFree(t *testing.T) {
	for _, tc := range []struct{ n, x int }{{3, 1}, {4, 2}, {5, 3}, {6, 2}, {4, 4}} {
		f := NewXSafeFactory(tc.n, tc.x, nil)
		for seed := int64(0); seed < 6; seed++ {
			xs := f.New("xsa")
			bodies := make([]sched.Proc, tc.n)
			for i := range bodies {
				bodies[i] = xsaBody(xs, 100+i)
			}
			res, err := sched.Run(sched.Config{Seed: seed}, bodies)
			if err != nil {
				t.Fatalf("n=%d x=%d seed=%d: %v", tc.n, tc.x, seed, err)
			}
			if res.NumDecided() != tc.n {
				t.Fatalf("n=%d x=%d seed=%d: decided %d", tc.n, tc.x, seed, res.NumDecided())
			}
			if res.DistinctDecided() != 1 {
				t.Fatalf("n=%d x=%d seed=%d: disagreement %v", tc.n, tc.x, seed, res.DecidedValues())
			}
			v := res.Outcomes[0].Value.(int)
			if v < 100 || v >= 100+tc.n {
				t.Fatalf("n=%d x=%d: decided %d, not proposed", tc.n, tc.x, v)
			}
		}
	}
}

// TestXSafeAgreementToleratesXMinusOneCrashes is the termination property of
// the x_safe_agreement type: with x-1 owners crashed while executing
// x_sa_propose, deciders still return.
func TestXSafeAgreementToleratesXMinusOneCrashes(t *testing.T) {
	const n, x = 5, 3
	f := NewXSafeFactory(n, x, nil)
	xs := f.New("xsa")
	bodies := make([]sched.Proc, n)
	for i := range bodies {
		bodies[i] = xsaBody(xs, 100+i)
	}
	// Procs 0 and 1 become owners first under round-robin and are crashed
	// inside their consensus scan, i.e. mid x_sa_propose: x-1 = 2 owner
	// crashes, which the object must tolerate.
	adv := sched.NewPlan(sched.NewRoundRobin()).
		CrashOnLabel(0, ".XCONS[", 1).
		CrashOnLabel(1, ".XCONS[", 1)
	res, err := sched.Run(sched.Config{Adversary: adv, MaxSteps: 100000}, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetExhausted {
		t.Fatal("deciders blocked despite only x-1 owner crashes")
	}
	for i := 2; i < n; i++ {
		if !res.Outcomes[i].Decided {
			t.Fatalf("survivor %d did not decide: %+v", i, res.Outcomes[i])
		}
	}
	if res.DistinctDecided() != 1 {
		t.Fatalf("disagreement: %v", res.DecidedValues())
	}
}

// TestXSafeAgreementBlocksWhenAllOwnersCrash shows the boundary: with all x
// owners crashed mid-propose, the object "crashes" and deciders block.
func TestXSafeAgreementBlocksWhenAllOwnersCrash(t *testing.T) {
	const n, x = 4, 2
	f := NewXSafeFactory(n, x, nil)
	xs := f.New("xsa")
	bodies := make([]sched.Proc, n)
	for i := range bodies {
		bodies[i] = xsaBody(xs, 100+i)
	}
	adv := sched.NewPlan(sched.NewRoundRobin()).
		CrashOnLabel(0, ".XCONS[", 1).
		CrashOnLabel(1, ".XCONS[", 1)
	res, err := sched.Run(sched.Config{Adversary: adv, MaxSteps: 5000}, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetExhausted {
		t.Fatal("run should have blocked: all owners crashed mid-propose")
	}
	if res.NumDecided() != 0 {
		t.Fatalf("decided %d, want 0", res.NumDecided())
	}
}

func TestXSafeAgreementNonOwnerReturnsImmediately(t *testing.T) {
	// With n > x proposers, exactly n - x invocations return without
	// becoming owners; those processes still decide via the owners' result.
	const n, x = 5, 2
	f := NewXSafeFactory(n, x, nil)
	xs := f.New("xsa")
	bodies := make([]sched.Proc, n)
	for i := range bodies {
		bodies[i] = xsaBody(xs, 100+i)
	}
	res, err := sched.Run(sched.Config{Seed: 23}, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDecided() != n || res.DistinctDecided() != 1 {
		t.Fatalf("outcomes: %v", res.DecidedValues())
	}
}

func TestXSafeAgreementXEqualsOneMatchesSafeAgreement(t *testing.T) {
	// With x = 1 the object degenerates to safe_agreement semantics: a
	// single owner; if it survives propose, everyone decides its value.
	const n = 3
	f := NewXSafeFactory(n, 1, nil)
	xs := f.New("xsa")
	bodies := make([]sched.Proc, n)
	for i := range bodies {
		bodies[i] = xsaBody(xs, 100+i)
	}
	res, err := sched.Run(sched.Config{Seed: 3}, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDecided() != n || res.DistinctDecided() != 1 {
		t.Fatalf("outcomes: %v", res.DecidedValues())
	}
}

func TestXSafeFactoryValidation(t *testing.T) {
	for _, tc := range []struct{ n, x int }{{3, 0}, {3, 4}, {0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewXSafeFactory(%d, %d) should panic", tc.n, tc.x)
				}
			}()
			NewXSafeFactory(tc.n, tc.x, nil)
		}()
	}
}

func TestXSafeFactoryAccessors(t *testing.T) {
	f := NewXSafeFactory(5, 2, nil)
	if f.N() != 5 || f.X() != 2 || f.NumSubsets() != 10 {
		t.Fatalf("accessors: N=%d X=%d m=%d", f.N(), f.X(), f.NumSubsets())
	}
}

func TestXSafeAgreementMisuse(t *testing.T) {
	f := NewXSafeFactory(3, 2, nil)
	t.Run("double propose", func(t *testing.T) {
		xs := f.New("xsa")
		bodies := []sched.Proc{func(e *sched.Env) {
			xs.Propose(e, 1)
			xs.Propose(e, 2)
		}}
		if _, err := sched.Run(sched.Config{}, bodies); err == nil {
			t.Fatal("double propose must surface as an error")
		}
	})
	t.Run("nil proposal", func(t *testing.T) {
		xs := f.New("xsa")
		bodies := []sched.Proc{func(e *sched.Env) { xs.Propose(e, nil) }}
		if _, err := sched.Run(sched.Config{}, bodies); err == nil {
			t.Fatal("nil proposal must surface as an error")
		}
	})
	t.Run("population overflow", func(t *testing.T) {
		xs := f.New("xsa")
		bodies := make([]sched.Proc, 4)
		for i := range bodies {
			bodies[i] = func(e *sched.Env) { xs.Propose(e, 1); e.Decide(0) }
		}
		if _, err := sched.Run(sched.Config{}, bodies); err == nil {
			t.Fatal("simulator outside population must surface as an error")
		}
	})
}

// xsafeSession packages one x_safe_agreement configuration for the
// exhaustive explorer. Deciders probe TryDecide a bounded number of times so
// the decision tree stays finite; schedules where every owner crashed
// mid-propose then surface as runs in which no survivor decides (the
// blocking boundary the unit tests above probe with a step budget).
func xsafeSession(n, x int) func() explore.Session {
	return func() explore.Session {
		var decided []any
		return explore.Session{
			Make: func() []sched.Proc {
				decided = decided[:0]
				xs := NewXSafeFactory(n, x, nil).New("xsa")
				bodies := make([]sched.Proc, n)
				for i := range bodies {
					v := 100 + i
					bodies[i] = func(e *sched.Env) {
						xs.Propose(e, v)
						for p := 0; p < 2; p++ {
							if got, ok := xs.TryDecide(e); ok {
								decided = append(decided, got)
								e.Decide(got)
								return
							}
						}
					}
				}
				return bodies
			},
			Check: func(res *sched.Result) error {
				seen := make(map[any]bool)
				for _, v := range decided {
					i, ok := v.(int)
					if !ok || i < 100 || i >= 100+n {
						return fmt.Errorf("non-proposed value %v decided", v)
					}
					seen[v] = true
				}
				if len(seen) > 1 {
					return fmt.Errorf("disagreement: %v", decided)
				}
				return nil
			},
		}
	}
}

// TestExhaustiveXSafeAgreementSafety replaces the earlier sampled
// quick-check: agreement + validity of x_safe_agreement hold on EVERY
// schedule of 2 proposers with at most one crash placed at every possible
// point, for both x = 1 (the safe_agreement degenerate) and x = 2 — proofs
// for the bounded configurations, not sweeps.
func TestExhaustiveXSafeAgreementSafety(t *testing.T) {
	for _, x := range []int{1, 2} {
		t.Run(fmt.Sprintf("x=%d", x), func(t *testing.T) {
			s := xsafeSession(2, x)()
			stats, err := explore.ExploreSession(s, explore.Config{MaxCrashes: 1, MaxSteps: 256})
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Exhausted {
				t.Fatal("exploration should exhaust")
			}
			t.Logf("x=%d: proved on %d runs (max depth %d)", x, stats.Runs, stats.MaxDepth)
		})
	}
}

// TestExhaustiveXSafeParallelDeterminism runs the same x = 2 configuration
// through the parallel explorer and asserts it visits exactly the runs the
// sequential one does, with and without partial-order reduction.
func TestExhaustiveXSafeParallelDeterminism(t *testing.T) {
	for _, prune := range []bool{false, true} {
		cfg := explore.Config{MaxCrashes: 1, MaxSteps: 256, Workers: 4, Prune: prune}
		s := xsafeSession(2, 2)()
		seq, err := explore.ExploreSession(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := explore.ExploreParallel(xsafeSession(2, 2), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !seq.Exhausted || !par.Exhausted {
			t.Fatalf("prune=%v: exhausted seq=%v par=%v", prune, seq.Exhausted, par.Exhausted)
		}
		if seq.Runs != par.Runs || seq.Pruned != par.Pruned {
			t.Fatalf("prune=%v: divergence seq={%d runs, %d pruned} par={%d runs, %d pruned}",
				prune, seq.Runs, seq.Pruned, par.Runs, par.Pruned)
		}
		t.Logf("prune=%v: %d runs, %d pruned", prune, par.Runs, par.Pruned)
	}
}
