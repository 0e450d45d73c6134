package sched

import (
	"fmt"
	"testing"
	"testing/quick"
)

// counterBody increments a local counter through k labelled steps and decides
// the counter value.
func counterBody(k int) Proc {
	return func(e *Env) {
		c := 0
		for i := 0; i < k; i++ {
			e.Step(fmt.Sprintf("inc/%d", i))
			c++
		}
		e.Decide(c)
	}
}

func TestRunAllDecide(t *testing.T) {
	const n, k = 5, 10
	bodies := make([]Proc, n)
	for i := range bodies {
		bodies[i] = counterBody(k)
	}
	res, err := Run(Config{Seed: 1}, bodies)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.NumDecided(); got != n {
		t.Fatalf("decided = %d, want %d", got, n)
	}
	for i, o := range res.Outcomes {
		if o.Status != StatusDecided {
			t.Errorf("proc %d status = %v, want decided", i, o.Status)
		}
		if o.Value != k {
			t.Errorf("proc %d value = %v, want %d", i, o.Value, k)
		}
		if o.Steps != k {
			t.Errorf("proc %d steps = %d, want %d", i, o.Steps, k)
		}
	}
	if res.Steps != n*k {
		t.Errorf("total steps = %d, want %d", res.Steps, n*k)
	}
}

func TestRunNoBodies(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Fatal("Run with no bodies should fail")
	}
}

func TestRunNilBody(t *testing.T) {
	if _, err := Run(Config{}, []Proc{nil}); err == nil {
		t.Fatal("Run with nil body should fail")
	}
}

func TestHaltedWithoutDecision(t *testing.T) {
	res, err := Run(Config{}, []Proc{func(e *Env) { e.Step("once") }})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Outcomes[0].Status != StatusHalted {
		t.Fatalf("status = %v, want halted", res.Outcomes[0].Status)
	}
	if res.Outcomes[0].Decided {
		t.Fatal("process should not have decided")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []Proc {
		bodies := make([]Proc, 4)
		for i := range bodies {
			bodies[i] = counterBody(20)
		}
		return bodies
	}
	run := func(seed int64) []TraceEntry {
		res, err := Run(Config{Seed: seed, TraceCapacity: 1 << 10}, mk())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Trace
	}
	t1, t2 := run(42), run(42)
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
	t3 := run(43)
	same := len(t1) == len(t3)
	if same {
		for i := range t1 {
			if t1[i] != t3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("seeds 42 and 43 produced identical schedules (possible but suspicious)")
	}
}

func TestCrashAtStep(t *testing.T) {
	bodies := []Proc{counterBody(100), counterBody(100)}
	adv := NewPlan(NewRoundRobin()).CrashAtStep(10, 1)
	res, err := Run(Config{Adversary: adv}, bodies)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Outcomes[1].Status != StatusCrashed {
		t.Fatalf("proc 1 status = %v, want crashed", res.Outcomes[1].Status)
	}
	if res.Outcomes[0].Status != StatusDecided {
		t.Fatalf("proc 0 status = %v, want decided", res.Outcomes[0].Status)
	}
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crashes)
	}
}

func TestCrashOnLabel(t *testing.T) {
	// The victim is crashed exactly when it is about to execute its 3rd
	// "inc" step, i.e. it has completed 2 steps.
	bodies := []Proc{counterBody(50), counterBody(50)}
	adv := NewPlan(NewRoundRobin()).CrashOnLabel(0, "inc/2", 1)
	res, err := Run(Config{Adversary: adv}, bodies)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	o := res.Outcomes[0]
	if o.Status != StatusCrashed {
		t.Fatalf("status = %v, want crashed", o.Status)
	}
	if o.Steps != 2 {
		t.Fatalf("victim executed %d steps, want 2", o.Steps)
	}
	if o.LastLabel != Intern("inc/2") {
		t.Fatalf("last label = %q, want inc/2", o.LastLabel)
	}
}

func TestCrashSetInitiallyDead(t *testing.T) {
	bodies := []Proc{counterBody(5), counterBody(5), counterBody(5)}
	adv := NewCrashSet(NewRoundRobin(), 0, 2)
	res, err := Run(Config{Adversary: adv}, bodies)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, id := range []int{0, 2} {
		if res.Outcomes[id].Status != StatusCrashed {
			t.Errorf("proc %d status = %v, want crashed", id, res.Outcomes[id].Status)
		}
		if res.Outcomes[id].Steps != 0 {
			t.Errorf("proc %d steps = %d, want 0", id, res.Outcomes[id].Steps)
		}
	}
	if res.Outcomes[1].Status != StatusDecided {
		t.Errorf("proc 1 status = %v, want decided", res.Outcomes[1].Status)
	}
}

func TestMaxCrashesEnforced(t *testing.T) {
	bodies := []Proc{counterBody(5), counterBody(5), counterBody(5)}
	adv := NewCrashSet(NewRoundRobin(), 0, 1)
	_, err := Run(Config{Adversary: adv, MaxCrashes: 1}, bodies)
	if err == nil {
		t.Fatal("Run should reject an adversary exceeding MaxCrashes")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	spin := func(e *Env) {
		for {
			e.Step("spin")
		}
	}
	res, err := Run(Config{MaxSteps: 100}, []Proc{spin, spin})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.BudgetExhausted {
		t.Fatal("run should report budget exhaustion")
	}
	for i, o := range res.Outcomes {
		if o.Status != StatusBlocked {
			t.Errorf("proc %d status = %v, want blocked", i, o.Status)
		}
	}
	if res.Steps != 100 {
		t.Errorf("steps = %d, want 100", res.Steps)
	}
}

func TestBodyPanicPropagates(t *testing.T) {
	bodies := []Proc{
		func(e *Env) {
			e.Step("boom")
			panic("kaboom")
		},
		counterBody(10),
	}
	if _, err := Run(Config{}, bodies); err == nil {
		t.Fatal("Run should surface body panics as errors")
	}
}

func TestDecideTwicePanics(t *testing.T) {
	bodies := []Proc{func(e *Env) {
		e.Step("a")
		e.Decide(1)
		e.Decide(2)
	}}
	if _, err := Run(Config{}, bodies); err == nil {
		t.Fatal("double decide should surface as an error")
	}
}

func TestDecidedThenCrashKeepsDecision(t *testing.T) {
	// Process 0 decides on its first step and then keeps stepping; the
	// adversary crashes it afterwards. The decision must survive.
	bodies := []Proc{
		func(e *Env) {
			e.Step("decide")
			e.Decide("v")
			for {
				e.Step("linger")
			}
		},
		counterBody(3),
	}
	adv := NewPlan(NewRoundRobin()).CrashOnLabel(0, "linger", 3)
	res, err := Run(Config{Adversary: adv}, bodies)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	o := res.Outcomes[0]
	if o.Status != StatusCrashed {
		t.Fatalf("status = %v, want crashed", o.Status)
	}
	if !o.Decided || o.Value != "v" {
		t.Fatalf("decision lost: %+v", o)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	const n, k = 3, 4
	bodies := make([]Proc, n)
	for i := range bodies {
		bodies[i] = counterBody(k)
	}
	res, err := Run(Config{Adversary: NewRoundRobin(), TraceCapacity: n * k}, bodies)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, te := range res.Trace {
		if want := ProcID(i % n); te.Proc != want {
			t.Fatalf("trace[%d].Proc = %d, want %d", i, te.Proc, want)
		}
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusDecided: "decided",
		StatusHalted:  "halted",
		StatusCrashed: "crashed",
		StatusBlocked: "blocked",
		Status(99):    "Status(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Outcomes: []Outcome{
		{Decided: true, Value: 1},
		{Decided: false},
		{Decided: true, Value: 1},
		{Decided: true, Value: 2},
	}}
	if got := r.NumDecided(); got != 3 {
		t.Errorf("NumDecided = %d, want 3", got)
	}
	if got := r.DistinctDecided(); got != 2 {
		t.Errorf("DistinctDecided = %d, want 2", got)
	}
	if got := len(r.DecidedValues()); got != 3 {
		t.Errorf("len(DecidedValues) = %d, want 3", got)
	}
}

// TestQuickStepConservation checks, across random configurations, that the
// total step count always equals the sum of the per-process counts and that
// no process exceeds its body's step demand.
func TestQuickStepConservation(t *testing.T) {
	f := func(seed int64, rawN, rawK uint8) bool {
		n := int(rawN%6) + 1
		k := int(rawK%30) + 1
		bodies := make([]Proc, n)
		for i := range bodies {
			bodies[i] = counterBody(k)
		}
		res, err := Run(Config{Seed: seed}, bodies)
		if err != nil {
			return false
		}
		sum := 0
		for _, o := range res.Outcomes {
			if o.Steps > k {
				return false
			}
			sum += o.Steps
		}
		return sum == res.Steps && res.NumDecided() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCrashBound checks that with f initially-dead processes exactly
// n-f processes decide and f are reported crashed.
func TestQuickCrashBound(t *testing.T) {
	f := func(seed int64, rawN, rawF uint8) bool {
		n := int(rawN%6) + 2
		fc := int(rawF) % n
		victims := make([]ProcID, 0, fc)
		for i := 0; i < fc; i++ {
			victims = append(victims, ProcID(i))
		}
		bodies := make([]Proc, n)
		for i := range bodies {
			bodies[i] = counterBody(5)
		}
		adv := NewCrashSet(NewRandom(seed), victims...)
		res, err := Run(Config{Adversary: adv}, bodies)
		if err != nil {
			return false
		}
		return res.NumDecided() == n-fc && res.Crashes == fc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEnvAccessors(t *testing.T) {
	bodies := make([]Proc, 3)
	for i := range bodies {
		i := i
		bodies[i] = func(e *Env) {
			if int(e.ID()) != i {
				panic("wrong ID")
			}
			if e.N() != 3 {
				panic("wrong N")
			}
			if e.Decided() {
				panic("decided too early")
			}
			e.Step("work")
			if e.StepCount() != 1 {
				panic("wrong StepCount")
			}
			if e.TotalSteps() < 1 {
				panic("wrong TotalSteps")
			}
			// Earlier processes may already have finished under round-robin,
			// so the smallest live process is at most our own ID.
			ldr := e.Leader()
			if ldr > e.ID() {
				panic("leader should be at most the caller")
			}
			set := e.LeaderSet(2)
			contains := false
			for _, p := range set {
				if p == ldr {
					contains = true
				}
			}
			if len(set) != 2 || !contains {
				panic("LeaderSet window must contain the smallest live process")
			}
			e.Decide(i * 10)
			if !e.Decided() || e.Decision() != i*10 {
				panic("decision accessors wrong")
			}
		}
	}
	res, err := Run(Config{Adversary: NewRoundRobin()}, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDecided() != 3 {
		t.Fatalf("decided %d of 3", res.NumDecided())
	}
}

func TestCrashAfterProcSteps(t *testing.T) {
	bodies := []Proc{counterBody(50), counterBody(50)}
	adv := NewPlan(NewRoundRobin()).CrashAfterProcSteps(0, 7)
	res, err := Run(Config{Adversary: adv}, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[0].Status != StatusCrashed || res.Outcomes[0].Steps != 7 {
		t.Fatalf("victim: %+v, want crashed at 7 steps", res.Outcomes[0])
	}
	if res.Outcomes[1].Status != StatusDecided {
		t.Fatalf("survivor: %+v", res.Outcomes[1])
	}
}

func TestPlanNilBaseDefaults(t *testing.T) {
	adv := NewPlan(nil).CrashOnLabel(0, "inc", 0) // occurrence < 1 clamps to 1
	bodies := []Proc{counterBody(5), counterBody(5)}
	res, err := Run(Config{Adversary: adv}, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crashes)
	}
}

func TestCrashSetNilBaseDefaults(t *testing.T) {
	adv := NewCrashSet(nil, 0)
	bodies := []Proc{counterBody(3), counterBody(3)}
	res, err := Run(Config{Adversary: adv}, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[0].Status != StatusCrashed {
		t.Fatalf("victim not crashed: %+v", res.Outcomes[0])
	}
}

func TestLeaderSetPanicsOutOfRange(t *testing.T) {
	bodies := []Proc{func(e *Env) {
		e.Step("x")
		e.LeaderSet(0)
	}}
	if _, err := Run(Config{}, bodies); err == nil {
		t.Fatal("LeaderSet(0) accepted")
	}
}

func TestStripedAdversary(t *testing.T) {
	// Processes 1 and 2 are favoured 3:1 over process 0.
	bodies := []Proc{counterBody(4), counterBody(12), counterBody(12)}
	adv := NewStriped(4, 1, 2)
	res, err := Run(Config{Adversary: adv, TraceCapacity: 1 << 10}, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDecided() != 3 {
		t.Fatalf("decided %d of 3", res.NumDecided())
	}
	// In the first 8 scheduled steps, the slow process gets at most a
	// quarter of the grants.
	slow := 0
	for i, te := range res.Trace {
		if i >= 8 {
			break
		}
		if te.Proc == 0 {
			slow++
		}
	}
	if slow > 2 {
		t.Fatalf("slow process got %d of the first 8 steps under 4-striping", slow)
	}
}

func TestStripedPeriodClamp(t *testing.T) {
	adv := NewStriped(0, 1) // clamps to 2
	bodies := []Proc{counterBody(3), counterBody(3)}
	if _, err := Run(Config{Adversary: adv}, bodies); err != nil {
		t.Fatal(err)
	}
}
