package bg

// Golden and differential checks of the simulation's observables: a fixed
// corpus of seeded runs is digested (traces, per-simulator outcomes,
// decisions, claims, completion counts and step totals) and the digest is
// pinned, so a change to the engine or to the scheduler protocol it runs on
// cannot silently alter a single step of any run in the corpus.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"testing"
	"time"

	"mpcn/internal/algorithms"
	"mpcn/internal/sched"
	"mpcn/internal/tasks"
)

// bgGoldenDigest is the digest of goldenCorpus. It was recorded before the
// simulator threads' shared steps were routed through the simulator
// coroutine, when the engine still ran on a channel-based protocol.
const bgGoldenDigest = "7eead5bf49ee42fab9637180401f7d76a9001f4aa8be0868a607f77c87ee9238"

// goldenCase is one corpus entry: an engine configuration minus the
// scheduler config, which each seed fills in.
type goldenCase struct {
	name     string
	cfg      Config
	maxSteps int
	adv      func(seed int64) sched.Adversary
	seeds    int
}

func goldenCorpus() []goldenCase {
	random := func(seed int64) sched.Adversary { return sched.NewRandom(seed) }
	crashOne := func(seed int64) sched.Adversary {
		return sched.NewCrashSet(sched.NewRandom(seed), sched.ProcID(seed%2))
	}
	crashMid := func(seed int64) sched.Adversary {
		return sched.NewPlan(sched.NewRandom(seed)).CrashAtStep(int(5+seed*7), sched.ProcID(seed%3))
	}
	colorless := func(n, t, sims int) Config {
		return Config{
			Alg: algorithms.SnapshotKSet{T: t}, Inputs: tasks.DistinctInputs(n),
			Simulators: sims, SourceX: 1, NewAgreement: SafeAgreementProvider(sims),
		}
	}
	colored := func(n int) Config {
		return Config{
			Alg: algorithms.Renaming{}, Inputs: tasks.DistinctInputs(n),
			Simulators: n, SourceX: 1, NewAgreement: XSafeAgreementProvider(n, 2, nil),
			Colored: true,
		}
	}
	toCompletion := colorless(4, 1, 3)
	toCompletion.RunToCompletion = true
	return []goldenCase{
		{"colorless", colorless(4, 1, 2), 4000, random, 24},
		{"colorless-crashset", colorless(4, 1, 2), 4000, crashOne, 24},
		{"colorless-crashmid", colorless(5, 2, 3), 6000, crashMid, 16},
		{"colorless-budget", colorless(4, 1, 2), 25, random, 24},
		{"colored", colored(3), 20000, random, 12},
		{"colored-crashmid", colored(4), 20000, crashMid, 12},
		{"colored-budget", colored(3), 60, random, 12},
		{"completion", toCompletion, 20000, random, 12},
		{"completion-crashset", toCompletion, 3000, crashOne, 12},
		{"completion-budget", toCompletion, 50, crashMid, 12},
	}
}

// corpusShape counts the run kinds the corpus reaches, so a change of the
// corpus that stops exercising crashes or budget exhaustion is caught.
type corpusShape struct {
	runs, failed, crashed, exhausted, colored int
}

// digestRun folds one run's observables into h.
func digestRun(h hash.Hash, shape *corpusShape, name string, seed int64, r *Result, err error) {
	fmt.Fprintf(h, "%s/%d:", name, seed)
	shape.runs++
	if err != nil {
		shape.failed++
		fmt.Fprintf(h, "err=%v\n", err)
		return
	}
	s := r.Sched
	if s.Crashes > 0 {
		shape.crashed++
	}
	if s.BudgetExhausted {
		shape.exhausted++
	}
	if r.SimOutputs != nil && r.ClaimedProc[0] >= 0 && r.SimulatorDecisions[0] != nil {
		shape.colored++
	}
	fmt.Fprintf(h, "steps=%d crashes=%d budget=%v\n", s.Steps, s.Crashes, s.BudgetExhausted)
	for _, te := range s.Trace {
		fmt.Fprintf(h, "%d %s\n", te.Proc, te.Label)
	}
	for i, o := range s.Outcomes {
		fmt.Fprintf(h, "o%d %v %v %v %d %s\n", i, o.Status, o.Decided, o.Value, o.Steps, o.LastLabel)
	}
	fmt.Fprintf(h, "dec=%v claims=%v out=%v completed=%v\n",
		r.SimulatorDecisions, r.ClaimedProc, r.SimOutputs, r.Completed)
}

// runOn runs eng once on the scheduler session s, which must have one
// process per simulator, and collects the result. The engine's threads stay
// parked until it is closed.
func runOn(eng *Engine, s *sched.Session) (*Result, error) {
	sres, err := s.Run(eng.cfg.Sched, eng.Bodies())
	if err != nil {
		return nil, err
	}
	return eng.Collect(sres), nil
}

// corpusDigest runs the golden corpus on sessions built with opts (one per
// simulator count, reused across the corpus) and returns its digest.
func corpusDigest(t *testing.T, opts sched.SessionOptions) (string, corpusShape) {
	t.Helper()
	sessions := make(map[int]*sched.Session)
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	h := sha256.New()
	var shape corpusShape
	for _, gc := range goldenCorpus() {
		for seed := int64(0); seed < int64(gc.seeds); seed++ {
			cfg := gc.cfg
			cfg.Sched = sched.Config{Adversary: gc.adv(seed), MaxSteps: gc.maxSteps, TraceCapacity: 1 << 16}
			run, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", gc.name, err)
			}
			s := sessions[cfg.Simulators]
			if s == nil {
				if s, err = sched.NewSessionWith(cfg.Simulators, opts); err != nil {
					t.Fatal(err)
				}
				sessions[cfg.Simulators] = s
			}
			r, err := runOn(run, s)
			run.Close()
			digestRun(h, &shape, gc.name, seed, r, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), shape
}

// TestBGGoldenDigest: the corpus digest matches the recorded golden on the
// default session protocol and on the rendezvous reference protocol.
func TestBGGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts sched.SessionOptions
	}{
		{"default", sched.SessionOptions{}},
		{"rendezvous", sched.SessionOptions{Rendezvous: true}},
	} {
		got, shape := corpusDigest(t, tc.opts)
		if got != bgGoldenDigest {
			t.Errorf("%s: corpus digest %s, golden %s", tc.name, got, bgGoldenDigest)
		}
		if shape.crashed == 0 || shape.exhausted == 0 || shape.exhausted == shape.runs {
			t.Errorf("%s: corpus shape %+v misses crashed or budget-exhausted runs", tc.name, shape)
		}
	}
}

// TestTornDownRunsLeakNoGoroutines: runs torn down while a simulator is
// parked inside a routed step (the step budget runs out, or the adversary
// crashes it) must leave every simulator thread where Close can end it. The
// runs reuse one engine per corpus case, Reset before each run; each thread
// is a coroutine with a goroutine of its own, so a thread that closing the
// engines does not end shows up in runtime.NumGoroutine.
func TestTornDownRunsLeakNoGoroutines(t *testing.T) {
	s, err := sched.NewSession(3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var cases []goldenCase
	var engines []*Engine
	for _, gc := range goldenCorpus() {
		if gc.cfg.Simulators == 3 {
			eng, err := New(gc.cfg)
			if err != nil {
				t.Fatalf("%s: %v", gc.name, err)
			}
			cases = append(cases, gc)
			engines = append(engines, eng)
		}
	}
	closeAll := func() {
		for _, eng := range engines {
			eng.Close()
		}
	}
	defer closeAll()
	run := func(i int) *Result {
		gc, eng := cases[i%len(cases)], engines[i%len(cases)]
		seed := int64(i)
		eng.Reset()
		eng.cfg.Sched = sched.Config{Adversary: gc.adv(seed), MaxSteps: 10 + i%90}
		r, err := runOn(eng, s)
		if err != nil {
			t.Fatalf("%s/%d: %v", gc.name, seed, err)
		}
		return r
	}
	run(0) // the session's process coroutines exist from here on
	closeAll()
	before := settledGoroutines()
	exhausted, crashed := 0, 0
	for i := 1; i <= 400; i++ {
		r := run(i)
		if r.Sched.BudgetExhausted {
			exhausted++
		}
		if r.Sched.Crashes > 0 {
			crashed++
		}
	}
	if exhausted == 0 || crashed == 0 {
		t.Fatalf("no teardown exercised: %d budget-exhausted, %d crashed runs", exhausted, crashed)
	}
	closeAll()
	if got := settledGoroutines(); got > before {
		t.Fatalf("goroutines %d -> %d over %d torn-down runs", before, got, exhausted+crashed)
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has held still for
// a few polls (or after a second at most). Goroutines left by earlier tests
// in the package exit asynchronously; a count taken while they wind down
// would make the leak check flaky, while a leaked thread never exits and
// still shows up.
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
