package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// sessionProtocols runs a subtest under both scheduling protocols.
func sessionProtocols(t *testing.T, f func(t *testing.T, opts SessionOptions)) {
	t.Helper()
	for _, tc := range []struct {
		name string
		opts SessionOptions
	}{
		{"rendezvous", SessionOptions{Rendezvous: true}},
		{"direct", SessionOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) { f(t, tc.opts) })
	}
}

// protocolName names a SessionOptions combination for map keys.
func protocolName(opts SessionOptions) string {
	if opts.Rendezvous {
		return "rendezvous"
	}
	return "direct"
}

// crashyBodies is a deterministic workload whose runs exercise grants,
// self-blocking spins and decisions.
func crashyBodies(n, k int) []Proc {
	bodies := make([]Proc, n)
	for i := range bodies {
		bodies[i] = counterBody(k)
	}
	return bodies
}

// crashyConfig is a run configuration with crashes placed mid-run, a fresh
// adversary per call (adversaries are stateful).
func crashyConfig(trace int) Config {
	adv := NewPlan(NewRoundRobin()).CrashOnLabel(1, "inc/2", 1).CrashAtStep(9, 2)
	return Config{Adversary: adv, TraceCapacity: trace, MaxCrashes: 3}
}

// TestSessionReuseDeterminism is the session-reuse regression: N back-to-back
// runs on one Session produce byte-identical traces and outcomes to N runs
// on fresh runtimes, crashes included.
func TestSessionReuseDeterminism(t *testing.T) {
	sessionProtocols(t, func(t *testing.T, opts SessionOptions) {
		const n, k, rounds = 4, 6, 5
		s, err := NewSessionWith(n, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for round := 0; round < rounds; round++ {
			got, err := s.Run(crashyConfig(1<<10), crashyBodies(n, k))
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			want, err := Run(crashyConfig(1<<10), crashyBodies(n, k))
			if err != nil {
				t.Fatalf("round %d fresh: %v", round, err)
			}
			if len(got.Trace) == 0 || len(got.Trace) != len(want.Trace) {
				t.Fatalf("round %d: trace lengths %d vs %d", round, len(got.Trace), len(want.Trace))
			}
			for i := range got.Trace {
				if got.Trace[i] != want.Trace[i] {
					t.Fatalf("round %d: traces diverge at %d: %v vs %v",
						round, i, got.Trace[i], want.Trace[i])
				}
			}
			if got.Steps != want.Steps || got.Crashes != want.Crashes {
				t.Fatalf("round %d: totals differ: %+v vs %+v", round, got, want)
			}
			for i := range got.Outcomes {
				if got.Outcomes[i] != want.Outcomes[i] {
					t.Fatalf("round %d: outcome %d differs: %+v vs %+v",
						round, i, got.Outcomes[i], want.Outcomes[i])
				}
			}
		}
	})
}

// compareResults requires two runs to be byte-identical in traces, outcomes
// and totals.
func compareResults(t *testing.T, nameA, nameB string, a, b *Result) {
	t.Helper()
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("%s vs %s: trace lengths differ: %d vs %d", nameA, nameB, len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("%s vs %s: traces diverge at %d: %v vs %v", nameA, nameB, i, a.Trace[i], b.Trace[i])
		}
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("%s vs %s: outcome %d differs: %+v vs %+v", nameA, nameB, i, a.Outcomes[i], b.Outcomes[i])
		}
	}
	if a.Steps != b.Steps || a.Crashes != b.Crashes || a.BudgetExhausted != b.BudgetExhausted {
		t.Fatalf("%s vs %s: totals differ: %+v vs %+v", nameA, nameB, a, b)
	}
}

// copyResult deep-copies a pooled Result for cross-run comparison.
func copyResult(res *Result) *Result {
	cp := *res
	cp.Outcomes = append([]Outcome(nil), res.Outcomes...)
	cp.Trace = append([]TraceEntry(nil), res.Trace...)
	return &cp
}

// TestProtocolEquivalence replays the same decision sequence under the
// rendezvous and direct protocols and requires byte-identical traces and
// outcomes — the guarantee that the dispatch optimizations are purely
// implementation details.
func TestProtocolEquivalence(t *testing.T) {
	const n, k = 5, 7
	run := func(opts SessionOptions) *Result {
		s, err := NewSessionWith(n, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.Run(crashyConfig(1<<10), crashyBodies(n, k))
		if err != nil {
			t.Fatal(err)
		}
		return copyResult(res)
	}
	central := run(SessionOptions{Rendezvous: true})
	direct := run(SessionOptions{})
	compareResults(t, "rendezvous", "direct", central, direct)
}

// planningAdversary wraps a recorded schedule and re-emits it as batched
// grants: the first decision carries the whole remainder as a Plan. It also
// exercises Sprint when asked: once only one process remains scheduled in
// the tail, it emits a sprint round instead of the plan tail.
type planningAdversary struct {
	script  []Grant
	pos     int
	sprint  bool
	emitted bool
}

func (a *planningAdversary) Next(v View) Decision {
	if a.pos >= len(a.script) {
		return Decision{Run: v.Runnable[0]}
	}
	g := a.script[a.pos]
	a.pos++
	var dec Decision
	if g.Crash {
		dec = CrashDecision(g.ID)
	} else {
		dec = Decision{Run: g.ID}
	}
	if !a.emitted {
		a.emitted = true
		dec.Plan = a.script[a.pos:]
		a.pos = len(a.script)
	}
	return dec
}

// sprintingAdversary schedules round-robin until only one process is still
// parked, then emits a single Sprint round for it.
type sprintingAdversary struct {
	rr        *RoundRobin
	sprinted  bool
	SprintLog []TraceEntry
}

func (a *sprintingAdversary) Next(v View) Decision {
	if len(v.Runnable) == 1 && !a.sprinted {
		a.sprinted = true
		return Decision{Run: v.Runnable[0], Sprint: true}
	}
	return a.rr.Next(v)
}

func (a *sprintingAdversary) SprintStep(id ProcID, label Label) {
	a.SprintLog = append(a.SprintLog, TraceEntry{Proc: id, Label: label})
}

// TestBatchedGrantsEquivalence: a schedule executed step-by-step and the
// same schedule pre-committed as one batched Plan produce byte-identical
// results, under both protocols, crashes included.
func TestBatchedGrantsEquivalence(t *testing.T) {
	const n, k = 4, 5
	// Record a reference schedule (with crashes) from the unbatched run.
	refAdv := NewPlan(NewRoundRobin()).CrashOnLabel(1, "inc/2", 1).CrashAtStep(9, 2)
	ref, err := Run(Config{Adversary: refAdv, TraceCapacity: 1 << 10, MaxCrashes: 3}, crashyBodies(n, k))
	if err != nil {
		t.Fatal(err)
	}
	want := copyResult(ref)
	// Rebuild the schedule as explicit grants: crashes are not in the trace,
	// so reconstruct them from outcome order via a replaying probe run.
	script := recordGrants(t, n, k)

	for _, opts := range []SessionOptions{{}, {Rendezvous: true}} {
		s, err := NewSessionWith(n, opts)
		if err != nil {
			t.Fatal(err)
		}
		adv := &planningAdversary{script: script}
		got, err := s.Run(Config{Adversary: adv, TraceCapacity: 1 << 10, MaxCrashes: 3}, crashyBodies(n, k))
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "unbatched", "batched/"+protocolName(opts), want, copyResult(got))
		s.Close()
	}
}

// grantRecorder wraps an adversary and records every decision it makes as a
// flat grant script (crash-only rounds become crash grants).
type grantRecorder struct {
	base   Adversary
	grants []Grant
}

func (a *grantRecorder) Next(v View) Decision {
	d := a.base.Next(v)
	// Track which processes remain parked after this round's crashes, so the
	// recorded run grant is the one the runtime actually resolves (a round
	// may crash the very process it named in Run, falling back to the first
	// parked process — a planned grant must name that process explicitly).
	parked := make(map[ProcID]bool, len(v.Runnable))
	for _, id := range v.Runnable {
		parked[id] = true
	}
	for _, c := range d.Crash {
		if parked[c] {
			a.grants = append(a.grants, Grant{ID: c, Crash: true})
			delete(parked, c)
		}
	}
	run := d.Run
	if run < 0 && len(d.Crash) > 0 {
		return d // crash-only round
	}
	if !parked[run] {
		run = -1
		for _, id := range v.Runnable {
			if parked[id] && (run < 0 || id < run) {
				run = id
			}
		}
	}
	if run >= 0 {
		a.grants = append(a.grants, Grant{ID: run})
	}
	return d
}

// recordGrants replays the crashyConfig schedule once, recording each round
// as explicit grants.
func recordGrants(t *testing.T, n, k int) []Grant {
	t.Helper()
	rec := &grantRecorder{base: NewPlan(NewRoundRobin()).CrashOnLabel(1, "inc/2", 1).CrashAtStep(9, 2)}
	if _, err := Run(Config{Adversary: rec, MaxCrashes: 3}, crashyBodies(n, k)); err != nil {
		t.Fatal(err)
	}
	return rec.grants
}

// TestSprintEquivalence: a run whose tail is granted via Sprint matches the
// same run scheduled step-by-step, and the SprintObserver sees exactly the
// sprinted grants.
func TestSprintEquivalence(t *testing.T) {
	const n = 3
	// Process 2 gets a longer body so the tail is a solo sprint.
	mk := func() []Proc {
		return []Proc{counterBody(2), counterBody(2), counterBody(8)}
	}
	want, err := Run(Config{Adversary: NewRoundRobin(), TraceCapacity: 1 << 10}, mk())
	if err != nil {
		t.Fatal(err)
	}
	wantCopy := copyResult(want)
	for _, opts := range []SessionOptions{{}, {Rendezvous: true}} {
		s, err := NewSessionWith(n, opts)
		if err != nil {
			t.Fatal(err)
		}
		adv := &sprintingAdversary{rr: NewRoundRobin()}
		got, err := s.Run(Config{Adversary: adv, TraceCapacity: 1 << 10}, mk())
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "stepwise", "sprinted/"+protocolName(opts), wantCopy, copyResult(got))
		if len(adv.SprintLog) == 0 {
			t.Fatalf("%s: sprint observer saw no grants", protocolName(opts))
		}
		for _, e := range adv.SprintLog {
			if e.Proc != 2 {
				t.Fatalf("%s: sprint granted process %d, want 2", protocolName(opts), e.Proc)
			}
		}
		s.Close()
	}
}

// planSprinter's first decision runs process 0 as a sprint behind a plan
// granting process 1; after that it grants round-robin.
type planSprinter struct {
	rr      *RoundRobin
	started bool
}

func (a *planSprinter) Next(v View) Decision {
	if !a.started {
		a.started = true
		return Decision{Run: 0, Plan: []Grant{{ID: 1}}, Sprint: true}
	}
	return a.rr.Next(v)
}

// TestPlanThenSprintEquivalence: a decision carrying both a Plan and a
// Sprint executes the plan, then keeps sprinting its process, under both
// protocols alike. (The direct protocol's dispatcher once read a sprinted
// process still parked after a plan as a spent budget and ended the run.)
func TestPlanThenSprintEquivalence(t *testing.T) {
	results := map[string]*Result{}
	sessionProtocols(t, func(t *testing.T, opts SessionOptions) {
		res, err := func() (*Result, error) {
			s, err := NewSessionWith(2, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			return s.Run(Config{Adversary: &planSprinter{rr: NewRoundRobin()}, TraceCapacity: 64}, crashyBodies(2, 4))
		}()
		if err != nil {
			t.Fatal(err)
		}
		if res.BudgetExhausted || res.NumDecided() != 2 {
			t.Fatalf("run cut short: %+v", res)
		}
		results[protocolName(opts)] = copyResult(res)
	})
	ref, direct := results["rendezvous"], results["direct"]
	if ref == nil || direct == nil {
		t.Fatal("missing protocol result")
	}
	compareResults(t, "rendezvous", "direct", ref, direct)
}

// TestSessionSurvivesErrorRuns: a session stays usable after a run fails
// (body panic) and after a run is reaped on the step budget.
func TestSessionSurvivesErrorRuns(t *testing.T) {
	sessionProtocols(t, func(t *testing.T, opts SessionOptions) {
		s, err := NewSessionWith(2, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		// Run 1: a body panics; Run must surface the error.
		boom := []Proc{
			func(e *Env) { e.Step("boom"); panic("kaboom") },
			counterBody(3),
		}
		if _, err := s.Run(Config{}, boom); err == nil {
			t.Fatal("panicking body should fail the run")
		}

		// Run 2: budget exhaustion reaps both processes.
		spin := func(e *Env) {
			for {
				e.Step("spin")
			}
		}
		res, err := s.Run(Config{MaxSteps: 10}, []Proc{spin, spin})
		if err != nil {
			t.Fatal(err)
		}
		if !res.BudgetExhausted || res.Outcomes[0].Status != StatusBlocked {
			t.Fatalf("expected blocked outcome, got %+v", res)
		}

		// Run 3: MaxCrashes violation errors out.
		adv := NewCrashSet(NewRoundRobin(), 0, 1)
		if _, err := s.Run(Config{Adversary: adv, MaxCrashes: 1}, crashyBodies(2, 3)); err == nil {
			t.Fatal("MaxCrashes violation should fail the run")
		}

		// Run 4: a normal run still works and is clean.
		res, err = s.Run(Config{Adversary: NewRoundRobin()}, crashyBodies(2, 3))
		if err != nil {
			t.Fatal(err)
		}
		if res.NumDecided() != 2 || res.Crashes != 0 || res.Steps != 6 {
			t.Fatalf("post-error run corrupted: %+v", res)
		}
	})
}

// TestSessionRunAfterCloseFails verifies the closed-session guard.
func TestSessionRunAfterCloseFails(t *testing.T) {
	s, err := NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Run(Config{}, crashyBodies(1, 1)); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestSessionBodyCountMismatch verifies the arity guard.
func TestSessionBodyCountMismatch(t *testing.T) {
	s, err := NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(Config{}, crashyBodies(3, 1)); err == nil {
		t.Fatal("mismatched body count should fail")
	}
	if _, err := s.Run(Config{}, []Proc{counterBody(1), nil}); err == nil {
		t.Fatal("nil body should fail")
	}
}

// retainingAdversary retains the View slices across Next calls — documented
// as invalid — and, after each decision, scribbles into the retained
// Runnable alias. The runtime recomputes the runnable set into the View from
// its own state every round, so mutations through stale aliases between
// decisions must be erased before the next View is observed; retained slices
// merely go stale (they alias a buffer the runtime keeps reusing), which is
// why retaining is documented as invalid.
type retainingAdversary struct {
	base     Adversary
	runnable []ProcID // retained alias of a previous round's View.Runnable
	pending  []Label  // retained alias, read-only
}

func (a *retainingAdversary) Next(v View) Decision {
	d := a.base.Next(v)
	if a.pending != nil {
		_ = a.pending[0] // stale reads are allowed, just meaningless
	}
	a.runnable = v.Runnable
	a.pending = v.Pending
	// Scribble through the alias after deciding. If the runtime trusted the
	// handed-out buffer across rounds, the next round's View (and with it
	// the schedule) would be corrupted.
	for i := range a.runnable {
		a.runnable[i] = ProcID(-7)
	}
	return d
}

// TestRetainingAdversaryCannotCorrupt: a View-retaining adversary (invalid
// per the contract) that mutates its retained Runnable slice between
// decisions must still see the same schedule as a well-behaved control,
// across multiple runs of one session.
func TestRetainingAdversaryCannotCorrupt(t *testing.T) {
	sessionProtocols(t, func(t *testing.T, opts SessionOptions) {
		const n, k = 3, 5
		s, err := NewSessionWith(n, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for round := 0; round < 3; round++ {
			got, err := s.Run(Config{
				Adversary:     &retainingAdversary{base: NewRoundRobin()},
				TraceCapacity: 1 << 10,
			}, crashyBodies(n, k))
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(Config{Adversary: NewRoundRobin(), TraceCapacity: 1 << 10},
				crashyBodies(n, k))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Trace) != len(want.Trace) {
				t.Fatalf("round %d: trace lengths differ: %d vs %d",
					round, len(got.Trace), len(want.Trace))
			}
			for i := range got.Trace {
				if got.Trace[i] != want.Trace[i] {
					t.Fatalf("round %d: retained-slice mutation changed the schedule at %d",
						round, i)
				}
			}
		}
	})
}

// TestReapedWhileParkedOnStartLabel: a process that never received its start
// grant when the budget runs out is reaped as StatusBlocked with the
// synthetic start label as its last label and zero steps.
func TestReapedWhileParkedOnStartLabel(t *testing.T) {
	sessionProtocols(t, func(t *testing.T, opts SessionOptions) {
		s, err := NewSessionWith(2, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		spin := func(e *Env) {
			for {
				e.Step("spin")
			}
		}
		// The adversary always runs process 0, so process 1 stays parked on
		// its start label until the budget reaps it.
		only0 := NewStriped(1<<30, 0)
		res, err := s.Run(Config{Adversary: only0, MaxSteps: 5}, []Proc{spin, spin})
		if err != nil {
			t.Fatal(err)
		}
		if !res.BudgetExhausted {
			t.Fatal("budget should have been exhausted")
		}
		o := res.Outcomes[1]
		if o.Status != StatusBlocked {
			t.Fatalf("proc 1 status = %v, want blocked", o.Status)
		}
		if o.Steps != 0 {
			t.Fatalf("proc 1 steps = %d, want 0", o.Steps)
		}
		if o.LastLabel != LabelStart {
			t.Fatalf("proc 1 last label = %q, want %q", o.LastLabel, StartLabel)
		}
		if res.Outcomes[0].Status != StatusBlocked || res.Outcomes[0].Steps != 5 {
			t.Fatalf("proc 0 outcome: %+v", res.Outcomes[0])
		}
	})
}

// TestSessionSelfCrashMidRound: the adversary crashes the process that just
// parked together with a second victim in the same decision, then the run
// continues. Both protocols must agree exactly.
func TestSessionSelfCrashMidRound(t *testing.T) {
	results := map[string]*Result{}
	sessionProtocols(t, func(t *testing.T, opts SessionOptions) {
		s, err := NewSessionWith(3, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Round-robin schedule; at step 4 crash processes 1 and 0 in one
		// decision: the victims are the process that just parked and one
		// parked earlier, delivered in a single round.
		adv := NewPlan(NewRoundRobin()).CrashAtStep(4, 1, 0)
		res, err := s.Run(Config{Adversary: adv, TraceCapacity: 1 << 10, MaxCrashes: 3},
			crashyBodies(3, 6))
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashes != 2 {
			t.Fatalf("crashes = %d, want 2", res.Crashes)
		}
		if res.Outcomes[2].Status != StatusDecided {
			t.Fatalf("survivor should decide: %+v", res.Outcomes[2])
		}
		results[protocolName(opts)] = copyResult(res)
	})
	ref, direct := results["rendezvous"], results["direct"]
	if ref == nil || direct == nil {
		t.Fatal("missing protocol result")
	}
	compareResults(t, "rendezvous", "direct", ref, direct)
}

// panicky is an adversary that panics after a fixed number of decisions.
// It always grants the lowest runnable process, so after the first grant
// process 0 is re-granted while it runs — under the direct protocol those
// consultations are made in place, on process 0's stack. inPlace records
// whether the panicking consultation was one of them.
type panicky struct {
	left    int
	inPlace bool
}

func (a *panicky) Next(v View) Decision {
	if a.left <= 0 {
		a.inPlace = onStack("(*Env).StepL")
		panic("adversary bug")
	}
	a.left--
	return Decision{Run: v.Runnable[0]}
}

// onStack reports whether a function whose name ends in fn is on the
// calling goroutine's (or coroutine's) stack.
func onStack(fn string) bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestAdversaryPanicFailsRunUnderBothProtocols: a panic inside
// Adversary.Next surfaces as the same run error under both protocols —
// whether the direct protocol's dispatcher made the consultation (the first
// one) or a parked process made it in place — every process is reaped, and
// the session stays healthy and usable.
func TestAdversaryPanicFailsRunUnderBothProtocols(t *testing.T) {
	cases := []struct {
		name    string
		left    int
		inPlace bool // under the direct protocol
	}{
		{"dispatcher", 0, false},
		{"in-place", 3, true},
	}
	msgs := map[string][]string{}
	sessionProtocols(t, func(t *testing.T, opts SessionOptions) {
		s, err := NewSessionWith(2, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, tc := range cases {
			adv := &panicky{left: tc.left}
			_, err = s.Run(Config{Adversary: adv}, crashyBodies(2, 5))
			if err == nil {
				t.Fatalf("%s: adversary panic should fail the run", tc.name)
			}
			if want := tc.inPlace && !opts.Rendezvous; adv.inPlace != want {
				t.Fatalf("%s: panicking consultation in place = %v, want %v", tc.name, adv.inPlace, want)
			}
			msgs[tc.name] = append(msgs[tc.name], err.Error())
			if !s.Healthy() {
				t.Fatalf("%s: session unhealthy after adversary panic", tc.name)
			}
			// The session must still work, and the next run be exact.
			want, err := Run(Config{Adversary: NewRoundRobin(), TraceCapacity: 64}, crashyBodies(2, 3))
			if err != nil {
				t.Fatal(err)
			}
			want = copyResult(want)
			res, err := s.Run(Config{Adversary: NewRoundRobin(), TraceCapacity: 64}, crashyBodies(2, 3))
			if err != nil || res.NumDecided() != 2 {
				t.Fatalf("%s: session unusable after adversary panic: %v %+v", tc.name, err, res)
			}
			compareResults(t, "fresh", "after-panic", want, res)
		}
	})
	for _, tc := range cases {
		if m := msgs[tc.name]; len(m) != 2 || m[0] != m[1] {
			t.Fatalf("%s: protocols report different errors: %q", tc.name, m)
		}
	}
}

// stickyAdversary mostly re-grants the process it granted last — the
// decision the direct protocol takes in place, without a switch — and
// otherwise draws from a seeded mix: grant another process, a crash-only
// round, a crash plus a grant (sometimes naming the victim, so the runtime
// falls back), a grant with a Plan of other processes' grants and a crash,
// or a Sprint. Every View it is shown is folded into digest, so two runs
// agree only if each consultation saw the same state.
type stickyAdversary struct {
	rng     *rand.Rand
	stick   int // percent of rounds that re-grant the last process
	crashes int // crashes left to inject
	last    ProcID
	digest  FP
}

func newSticky(seed int64, stick, crashes int) *stickyAdversary {
	return &stickyAdversary{rng: rand.New(rand.NewSource(seed)), stick: stick, crashes: crashes, last: -1}
}

func (a *stickyAdversary) Next(v View) Decision {
	h := &a.digest
	h.Int(v.Step)
	for _, id := range v.Runnable {
		h.Int(int(id))
	}
	for i := range v.Pending {
		h.Label(v.Pending[i])
		h.Bool(v.Crashed[i])
		h.Int(v.StepsOf[i])
		if v.Obs != nil {
			obs := v.Obs[i].Sum()
			h.Word(obs.Lo)
			h.Word(obs.Hi)
		}
	}
	parked := func(id ProcID) bool {
		for _, r := range v.Runnable {
			if r == id {
				return true
			}
		}
		return false
	}
	pick := func() ProcID { return v.Runnable[a.rng.Intn(len(v.Runnable))] }
	r := a.rng.Intn(100)
	if r < a.stick && parked(a.last) {
		return Decision{Run: a.last}
	}
	switch r % 6 {
	case 1:
		if a.crashes > 0 && len(v.Runnable) > 1 {
			a.crashes--
			return CrashDecision(pick())
		}
	case 2:
		if a.crashes > 0 && len(v.Runnable) > 1 {
			a.crashes--
			victim, run := pick(), pick() // run may name the victim: the runtime falls back
			a.last = run
			return Decision{Run: run, Crash: []ProcID{victim}}
		}
	case 3:
		// Grant a process — often the last one, a self-grant carrying a
		// plan — then pre-commit one grant of each other parked process (each
		// is still parked when its turn comes: nobody else runs in between)
		// and possibly a crash of the first.
		run := pick()
		if parked(a.last) && a.rng.Intn(2) == 0 {
			run = a.last
		}
		var plan []Grant
		for _, id := range v.Runnable {
			if id != run && a.rng.Intn(2) == 0 {
				plan = append(plan, Grant{ID: id})
				a.last = id
			}
		}
		if a.crashes > 0 && a.rng.Intn(3) == 0 {
			a.crashes--
			plan = append(plan, Grant{ID: run, Crash: true})
		}
		if len(plan) == 0 {
			a.last = run
		}
		return Decision{Run: run, Plan: plan}
	case 4:
		a.last = pick()
		return Decision{Run: a.last, Sprint: a.rng.Intn(4) == 0}
	}
	a.last = pick()
	return Decision{Run: a.last}
}

// stickyBodies are processes of different lengths that observe a value per
// step, so runs mix self-grant streaks, completions and observation digests.
func stickyBodies(n int) []Proc { return probedBodies(n, nil) }

// probedBodies are stickyBodies that call probe, when set, after each
// granted step; more reports whether the process will step again.
func probedBodies(n int, probe func(e *Env, more bool)) []Proc {
	bodies := make([]Proc, n)
	for i := range bodies {
		k := 3 + 7*i
		labels := InternIndexed("sticky%s/%d", fmt.Sprint(i), k)
		bodies[i] = func(e *Env) {
			c := 0
			for j := 0; j < k; j++ {
				e.StepL(labels[j])
				if probe != nil {
					probe(e, j+1 < k)
				}
				c += j
				ObserveBool(e, c%3 == 0)
			}
			e.Decide(c)
		}
	}
	return bodies
}

// TestStickyEquivalence is the differential battery of in-place
// self-grants: seeded sticky adversaries, most of whose decisions re-grant
// the process that just parked, produce byte-identical Results and Traces,
// and identical Views at every consultation, under the rendezvous protocol
// (every decision made by the dispatcher) and the direct protocol (self
// re-grants consulted and taken in place). The step budgets include ones
// that expire inside a self-grant streak.
func TestStickyEquivalence(t *testing.T) {
	const n = 4
	type outcome struct {
		res    *Result
		err    error
		digest Fingerprint
	}
	streakCut := 0
	for _, maxSteps := range []int{0, 9, 23, 37, 61} {
		for _, stick := range []int{60, 90, 98} {
			for seed := int64(1); seed <= 12; seed++ {
				cfgName := fmt.Sprintf("steps=%d/stick=%d/seed=%d", maxSteps, stick, seed)
				var runs [2]outcome
				for i, opts := range []SessionOptions{{Rendezvous: true}, {}} {
					s, err := NewSessionWith(n, opts)
					if err != nil {
						t.Fatal(err)
					}
					adv := newSticky(seed, stick, 2)
					res, err := s.Run(Config{Adversary: adv, MaxSteps: maxSteps, TraceCapacity: 1 << 12, Observe: true}, stickyBodies(n))
					runs[i] = outcome{err: err, digest: adv.digest.Sum()}
					if err == nil {
						runs[i].res = copyResult(res)
					}
					s.Close()
				}
				ref, got := runs[0], runs[1]
				if (ref.err == nil) != (got.err == nil) || (ref.err != nil && ref.err.Error() != got.err.Error()) {
					t.Fatalf("%s: errors differ: %v vs %v", cfgName, ref.err, got.err)
				}
				if ref.digest != got.digest {
					t.Fatalf("%s: the adversary saw different Views", cfgName)
				}
				if ref.err != nil {
					continue
				}
				compareResults(t, "rendezvous/"+cfgName, "direct/"+cfgName, ref.res, got.res)
				if tr := ref.res.Trace; ref.res.BudgetExhausted && len(tr) >= 2 && tr[len(tr)-1].Proc == tr[len(tr)-2].Proc {
					streakCut++
				}
			}
		}
	}
	if streakCut == 0 {
		t.Fatal("no case exhausted its budget inside a self-grant streak")
	}
	t.Logf("%d runs cut by the budget inside a self-grant streak", streakCut)
}

// chainProbe wraps an adversary and watches the direct protocol's chain of
// nested resumes (s is nil under the rendezvous protocol): it counts
// decisions that crash a process suspended below the top of the chain, and
// panics at consultation panicAt (counted from 0; negative for never).
type chainProbe struct {
	base         Adversary
	s            *Session
	calls        int
	panicAt      int
	depths       []int // chain depth at each consultation (direct)
	crashesBelow int
}

func (a *chainProbe) Next(v View) Decision {
	call := a.calls
	a.calls++
	if a.s != nil {
		a.depths = append(a.depths, a.s.depth)
	}
	if call == a.panicAt {
		panic(fmt.Sprintf("adversary bug at consultation %d", call))
	}
	d := a.base.Next(v)
	if a.s != nil {
		for _, c := range d.Crash {
			if pos := a.s.chainPos[c]; pos > 0 && pos < a.s.depth {
				a.crashesBelow++
			}
		}
	}
	return d
}

// chainRun is one run of a chain-battery case under one protocol.
type chainRun struct {
	res    *Result // a copy; nil when the run failed
	err    error
	digest Fingerprint // of every View the adversary was shown
	probe  *chainProbe
	s      *Session // still open
	// expiryDepth is the chain depth at which the process that took the
	// budget's last step parks again (direct protocol only).
	expiryDepth int
}

// runChainCase runs stickyBodies(n) under a seeded sticky adversary behind a
// chainProbe that panics at consultation panicAt.
func runChainCase(t *testing.T, opts SessionOptions, n, maxSteps, stick int, seed int64, panicAt int) chainRun {
	t.Helper()
	s, err := NewSessionWith(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	sticky := newSticky(seed, stick, n-2)
	r := chainRun{probe: &chainProbe{base: sticky, panicAt: panicAt}, s: s}
	var probe func(e *Env, more bool)
	if !opts.Rendezvous {
		r.probe.s = s
		probe = func(e *Env, more bool) {
			if more && s.steps == s.cfg.MaxSteps {
				r.expiryDepth = s.depth
			}
		}
	}
	res, err := s.Run(Config{Adversary: r.probe, MaxSteps: maxSteps, TraceCapacity: 1 << 12, Observe: true},
		probedBodies(n, probe))
	r.err, r.digest = err, sticky.digest.Sum()
	if err == nil {
		r.res = copyResult(res)
	}
	return r
}

// compareChainRuns requires the rendezvous and direct runs of a case to fail
// alike or to be byte-identical, and the adversary to have seen the same
// Views.
func compareChainRuns(t *testing.T, name string, ref, got chainRun) {
	t.Helper()
	if (ref.err == nil) != (got.err == nil) || (ref.err != nil && ref.err.Error() != got.err.Error()) {
		t.Fatalf("%s: errors differ: %v vs %v", name, ref.err, got.err)
	}
	if ref.digest != got.digest {
		t.Fatalf("%s: the adversary saw different Views", name)
	}
	if ref.err == nil {
		compareResults(t, "rendezvous/"+name, "direct/"+name, ref.res, got.res)
	}
}

// TestHandoffChainEquivalence is the differential battery of the token
// handoff: seeded sticky adversaries that seldom (stick 30) or never (stick
// 0) re-grant the last process, so most grants move the token and chains of
// nested resumes reach depth n, produce byte-identical Results and Traces,
// and identical Views at every consultation, under the rendezvous protocol
// and the direct protocol. Each case is replayed with the adversary
// panicking at a consultation the direct protocol makes in place at depth 2
// or more; both protocols must fail it with the same error, and the direct
// session must stay healthy, its next run byte-identical to a fresh
// session's. The battery requires that it saw a crash of a process
// suspended below the top of the chain, a step budget expiring at chain
// depth 3 or more, and such an adversary panic.
func TestHandoffChainEquivalence(t *testing.T) {
	direct, rendezvous := SessionOptions{}, SessionOptions{Rendezvous: true}
	crashesBelow, deepExpiries, deepPanics := 0, 0, 0
	for _, n := range []int{3, 4, 5} {
		for _, maxSteps := range []int{0, 7, 11, 13, 17, 19, 23, 29, 31, 37, 43} {
			for _, stick := range []int{0, 30} {
				for seed := int64(1); seed <= 8; seed++ {
					name := fmt.Sprintf("n=%d/steps=%d/stick=%d/seed=%d", n, maxSteps, stick, seed)
					ref := runChainCase(t, rendezvous, n, maxSteps, stick, seed, -1)
					ref.s.Close()
					got := runChainCase(t, direct, n, maxSteps, stick, seed, -1)
					got.s.Close()
					compareChainRuns(t, name, ref, got)
					crashesBelow += got.probe.crashesBelow
					if got.res != nil && got.res.BudgetExhausted && got.expiryDepth >= 3 {
						deepExpiries++
					}

					// Panic at the first consultation past a seeded point
					// that the direct protocol made in place at depth >= 2.
					panicAt := -1
					for i := int(seed) % 5; i < len(got.probe.depths); i++ {
						if got.probe.depths[i] >= 2 {
							panicAt = i
							break
						}
					}
					if panicAt < 0 {
						continue
					}
					name = fmt.Sprintf("%s/panic@%d", name, panicAt)
					ref = runChainCase(t, rendezvous, n, maxSteps, stick, seed, panicAt)
					ref.s.Close()
					got = runChainCase(t, direct, n, maxSteps, stick, seed, panicAt)
					if got.err == nil || !strings.Contains(got.err.Error(), "adversary panicked") {
						t.Fatalf("%s: run error %v, want an adversary panic", name, got.err)
					}
					compareChainRuns(t, name, ref, got)
					if !got.s.Healthy() {
						t.Fatalf("%s: session unhealthy after the adversary panic", name)
					}
					cfg := func() Config {
						return Config{Adversary: newSticky(seed, stick, n-2), TraceCapacity: 1 << 12, Observe: true}
					}
					after, err := got.s.Run(cfg(), stickyBodies(n))
					if err != nil {
						t.Fatalf("%s: run after the panic: %v", name, err)
					}
					after = copyResult(after)
					got.s.Close()
					fresh, err := Run(cfg(), stickyBodies(n))
					if err != nil {
						t.Fatal(err)
					}
					compareResults(t, "fresh/"+name, "after-panic/"+name, fresh, after)
					deepPanics++
				}
			}
		}
	}
	if crashesBelow == 0 || deepExpiries == 0 || deepPanics == 0 {
		t.Fatalf("chain cases not all exercised: %d crashes below the top, %d budget expiries at depth >= 3, %d adversary panics at depth >= 2",
			crashesBelow, deepExpiries, deepPanics)
	}
	t.Logf("%d crashes below the top of the chain, %d budget expiries at depth >= 3, %d adversary panics at depth >= 2",
		crashesBelow, deepExpiries, deepPanics)
}

// TestHandoffTeardownLeaksNoGoroutines: runs torn down while the chain of
// nested resumes is deep — the budget expiring at depth 3 or more, the
// adversary panicking in place at depth 2 or more, a body panicking in a
// nested process — leave no coroutine behind once the session is closed.
// Each process coroutine has a goroutine of its own, so one left suspended
// inside a resume shows up in runtime.NumGoroutine.
func TestHandoffTeardownLeaksNoGoroutines(t *testing.T) {
	const n = 4
	before := settledGoroutines()
	s, err := NewSession(n)
	if err != nil {
		t.Fatal(err)
	}
	spin := Intern("spin")
	var expiries, advPanics, bodyPanics int
	for i := 0; i < 400; i++ {
		kind, budget := i%3, 10+i%37
		expiryDepth := 0
		bodies := make([]Proc, n)
		for p := range bodies {
			bodies[p] = func(e *Env) {
				for {
					e.StepL(spin)
					if s.steps == budget {
						expiryDepth = s.depth
					}
					if kind == 2 && s.depth >= 2 && e.StepCount() > (i/3)%3 {
						panic("body bug")
					}
				}
			}
		}
		adv := &chainProbe{base: NewRoundRobin(), s: s, panicAt: -1}
		if kind == 1 {
			adv.panicAt = 2 + i%11
		}
		res, err := s.Run(Config{Adversary: adv, MaxSteps: budget}, bodies)
		switch kind {
		case 0:
			if err != nil || !res.BudgetExhausted {
				t.Fatalf("run %d: err=%v, want the budget to expire", i, err)
			}
			if expiryDepth >= 3 {
				expiries++
			}
		case 1:
			if err == nil || !strings.Contains(err.Error(), "adversary panicked") {
				t.Fatalf("run %d: err=%v, want an adversary panic", i, err)
			}
			if adv.depths[adv.panicAt] >= 2 {
				advPanics++
			}
		case 2:
			if err == nil || !strings.Contains(err.Error(), "panicked: body bug") {
				t.Fatalf("run %d: err=%v, want a body panic", i, err)
			}
			bodyPanics++
		}
		if !s.Healthy() {
			t.Fatalf("run %d: session unhealthy", i)
		}
	}
	s.Close()
	if expiries == 0 || advPanics == 0 || bodyPanics == 0 {
		t.Fatalf("teardowns not all exercised mid-chain: %d budget expiries at depth >= 3, %d adversary panics at depth >= 2, %d nested body panics",
			expiries, advPanics, bodyPanics)
	}
	if got := settledGoroutines(); got > before {
		t.Fatalf("goroutines %d -> %d over 400 torn-down runs and Close", before, got)
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has held still for
// a few polls (or after a second at most). Goroutines left by earlier tests
// exit asynchronously; a count taken while they wind down would make the
// leak check flaky, while a leaked coroutine never exits and still shows up.
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

// TestSessionManyRunsStress reuses one session for a large number of short
// runs with rotating adversaries — the explorer's usage pattern in
// miniature.
func TestSessionManyRunsStress(t *testing.T) {
	s, err := NewSession(3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 500; i++ {
		var adv Adversary
		switch i % 3 {
		case 0:
			adv = NewRoundRobin()
		case 1:
			adv = NewRandom(int64(i))
		default:
			adv = NewPlan(NewRoundRobin()).CrashAtStep(i%7, ProcID(i%3))
		}
		res, err := s.Run(Config{Adversary: adv, MaxCrashes: 3}, crashyBodies(3, 4))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.NumDecided()+res.Crashes != 3 {
			t.Fatalf("run %d: %d decided + %d crashed != 3", i, res.NumDecided(), res.Crashes)
		}
	}
}
