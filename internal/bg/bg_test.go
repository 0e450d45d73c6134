package bg

import (
	"testing"
	"testing/quick"

	"mpcn/internal/algorithms"
	"mpcn/internal/sched"
	"mpcn/internal/tasks"
)

// validateColorless checks the simulators' decision multiset against a
// colorless task: every decided value proposed, distinct count within the
// task bound. Colorless semantics allow any process to decide any legal
// value, so the arrangement over processes is immaterial.
func validateColorless(t *testing.T, task tasks.Task, inputs []any, r *Result) {
	t.Helper()
	outputs := make([]any, len(inputs))
	slot := 0
	for _, v := range r.SimulatorDecisions {
		if v == nil {
			continue
		}
		outputs[slot%len(outputs)] = v
		slot++
	}
	if err := task.Validate(inputs, outputs); err != nil {
		t.Fatalf("task violated: %v", err)
	}
}

func TestClassicBGFailureFree(t *testing.T) {
	// n = 6 simulated processes, t = 2: the 2-resilient 3-set algorithm runs
	// on 3 simulators; all simulators decide legal values. The seed sweep
	// drives fresh engines over one reusable scheduler session (the sweep
	// driver path: Bodies, Collect, Close).
	const n, tRes = 6, 2
	inputs := tasks.DistinctInputs(n)
	session, err := sched.NewSession(tRes + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	for seed := int64(0); seed < 8; seed++ {
		run, err := New(Config{
			Alg: algorithms.SnapshotKSet{T: tRes}, Inputs: inputs, Simulators: tRes + 1,
			SourceX: 1, NewAgreement: SafeAgreementProvider(tRes + 1),
			Sched: sched.Config{Seed: seed},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r, err := runOn(run, session)
		run.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := r.Sched.NumDecided(); got != tRes+1 {
			t.Fatalf("seed %d: %d simulators decided, want %d (budget %v)",
				seed, got, tRes+1, r.Sched.BudgetExhausted)
		}
		validateColorless(t, tasks.KSet{K: tRes + 1}, inputs, r)
	}
}

func TestClassicBGConsensusZeroResilience(t *testing.T) {
	// t = 0: one simulator runs the failure-free consensus algorithm for all
	// n processes and decides.
	const n = 4
	inputs := tasks.DistinctInputs(n)
	r, err := Simulate(algorithms.SnapshotKSet{T: 0}, inputs, 0, sched.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sched.NumDecided() != 1 {
		t.Fatalf("decided %d, want 1", r.Sched.NumDecided())
	}
	validateColorless(t, tasks.Consensus{}, inputs, r)
}

func TestClassicBGToleratesTSimulatorCrashes(t *testing.T) {
	// t = 2 simulator crashes among t+1 = 3 simulators, each crash timed
	// inside a safe_agreement propose (the worst case): the lone correct
	// simulator must still decide — each crash blocks at most one simulated
	// process, and the algorithm is 2-resilient.
	const n, tRes = 6, 2
	inputs := tasks.DistinctInputs(n)
	adv := sched.NewPlan(sched.NewRandom(3)).
		CrashOnLabel(0, "SAFE_AG[0,1].SM.scan", 1).
		CrashOnLabel(1, "SAFE_AG[1,1].SM.scan", 1)
	r, err := Simulate(algorithms.SnapshotKSet{T: tRes}, inputs, tRes,
		sched.Config{Adversary: adv, MaxSteps: 400000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sched.BudgetExhausted {
		t.Fatal("correct simulator blocked")
	}
	if r.Sched.Outcomes[2].Status != sched.StatusDecided {
		t.Fatalf("survivor simulator: %+v", r.Sched.Outcomes[2])
	}
	validateColorless(t, tasks.KSet{K: tRes + 1}, inputs, r)
}

// TestBGSimulatorCrashBlocksAtMostOneProcess reproduces Lemma 1 for x = 1:
// a simulator crash inside sa_propose blocks exactly the one simulated
// process it was engaged for; the correct simulators finish every other
// simulated process. We observe it indirectly: with one crash and a
// 1-resilient algorithm, survivors decide.
func TestBGSimulatorCrashBlocksAtMostOneProcess(t *testing.T) {
	const n, tRes = 5, 1
	inputs := tasks.DistinctInputs(n)
	adv := sched.NewPlan(sched.NewRandom(7)).
		CrashOnLabel(0, "SAFE_AG[2,1].SM.scan", 1)
	r, err := Simulate(algorithms.SnapshotKSet{T: tRes}, inputs, tRes,
		sched.Config{Adversary: adv, MaxSteps: 400000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sched.Outcomes[1].Status != sched.StatusDecided {
		t.Fatalf("correct simulator blocked: %+v", r.Sched.Outcomes[1])
	}
	validateColorless(t, tasks.KSet{K: tRes + 1}, inputs, r)
}

func TestBGMoreSimulatorsThanTPlusOne(t *testing.T) {
	// The engine also supports n' > t+1 (used by the Section 3/4 wrappers
	// where n' = n): all simulators decide in crash-free runs.
	const n, nPrime = 5, 5
	inputs := tasks.DistinctInputs(n)
	run, err := New(Config{
		Alg:          algorithms.SnapshotKSet{T: 1},
		Inputs:       inputs,
		Simulators:   nPrime,
		SourceX:      1,
		NewAgreement: SafeAgreementProvider(nPrime),
		Sched:        sched.Config{Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := run.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Sched.NumDecided() != nPrime {
		t.Fatalf("decided %d of %d", r.Sched.NumDecided(), nPrime)
	}
	validateColorless(t, tasks.KSet{K: 2}, inputs, r)
}

func TestBGConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{
			Alg:          algorithms.SnapshotKSet{T: 1},
			Inputs:       tasks.DistinctInputs(4),
			Simulators:   2,
			SourceX:      1,
			NewAgreement: SafeAgreementProvider(2),
		}
	}
	t.Run("no inputs", func(t *testing.T) {
		c := base()
		c.Inputs = nil
		if _, err := New(c); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("no simulators", func(t *testing.T) {
		c := base()
		c.Simulators = 0
		if _, err := New(c); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("nil algorithm", func(t *testing.T) {
		c := base()
		c.Alg = nil
		if _, err := New(c); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("nil provider", func(t *testing.T) {
		c := base()
		c.NewAgreement = nil
		if _, err := New(c); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("bad SourceX", func(t *testing.T) {
		c := base()
		c.SourceX = 0
		if _, err := New(c); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("ports exceed SourceX", func(t *testing.T) {
		c := base()
		c.Alg = algorithms.GroupedKSet{K: 2, X: 2}
		// SourceX = 1 but the algorithm declares 2-port objects.
		if _, err := New(c); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("colored needs n >= n'", func(t *testing.T) {
		c := base()
		c.Colored = true
		c.Simulators = 6
		c.NewAgreement = SafeAgreementProvider(6)
		if _, err := New(c); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("negative t", func(t *testing.T) {
		if _, err := Simulate(algorithms.SnapshotKSet{T: 0}, tasks.DistinctInputs(2), -1, sched.Config{}); err == nil {
			t.Fatal("accepted")
		}
	})
}

// TestQuickBGClassic sweeps (n, t, seed): in crash-free runs all t+1
// simulators decide and the (t+1)-set bound holds.
func TestQuickBGClassic(t *testing.T) {
	f := func(seed int64, rawN, rawT uint8) bool {
		n := int(rawN%4) + 2
		tRes := int(rawT) % n
		inputs := tasks.DistinctInputs(n)
		r, err := Simulate(algorithms.SnapshotKSet{T: tRes}, inputs, tRes,
			sched.Config{Seed: seed, MaxSteps: 600000})
		if err != nil || r.Sched.BudgetExhausted {
			return false
		}
		if r.Sched.NumDecided() != tRes+1 {
			return false
		}
		distinct := make(map[any]bool)
		for _, v := range r.SimulatorDecisions {
			if v != nil {
				distinct[v] = true
				if iv, ok := v.(int); !ok || iv < 0 || iv >= n {
					return false
				}
			}
		}
		return len(distinct) <= tRes+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
