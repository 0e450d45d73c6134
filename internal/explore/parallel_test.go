package explore

import (
	"errors"
	"fmt"
	"testing"

	"mpcn/internal/agreement"
	"mpcn/internal/object"
	"mpcn/internal/reg"
	"mpcn/internal/sched"
)

// tasSession builds a per-worker session: 3 processes race a test&set object
// and the checker demands exactly one winner. The winners counter lives in
// the session, so concurrent workers never share run state.
func tasSession() Session {
	winners := 0
	var ts *object.TestAndSet
	mk := func() []sched.Proc {
		winners = 0
		ts = object.NewTestAndSet("ts")
		body := func(e *sched.Env) {
			if ts.TestAndSet(e) {
				winners++
			}
			e.Decide(0)
		}
		return []sched.Proc{body, body, body}
	}
	check := func(res *sched.Result) error {
		if res.BudgetExhausted {
			return errors.New("wedged")
		}
		if res.NumDecided() == 3 && winners != 1 {
			return fmt.Errorf("%d winners", winners)
		}
		return nil
	}
	return Session{Make: mk, Check: check}
}

// safeAgreementSession: 2 proposers, bounded decide probes, at most one
// crash — the configuration of TestExhaustiveSafeAgreementSafety, shaped as
// a reusable session.
func safeAgreementSession() Session {
	var decided []any
	mk := func() []sched.Proc {
		decided = decided[:0]
		sa := agreement.NewSafeAgreement("sa", 2)
		mkBody := func(v int) sched.Proc {
			return func(e *sched.Env) {
				sa.Propose(e, v)
				for i := 0; i < 2; i++ {
					if got, ok := sa.TryDecide(e); ok {
						decided = append(decided, got)
						e.Decide(got)
						return
					}
				}
			}
		}
		return []sched.Proc{mkBody(100), mkBody(200)}
	}
	check := func(res *sched.Result) error {
		seen := make(map[any]bool)
		for _, v := range decided {
			if v != 100 && v != 200 {
				return fmt.Errorf("non-proposed value %v", v)
			}
			seen[v] = true
		}
		if len(seen) > 1 {
			return fmt.Errorf("disagreement: %v", decided)
		}
		return nil
	}
	return Session{Make: mk, Check: check}
}

// TestParallelMatchesSequential is the determinism regression test: for
// several configurations, with and without pruning, the parallel explorer
// must visit exactly the runs (and prune exactly the branches) the
// sequential one does.
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name    string
		session func() Session
		cfg     Config
	}{
		{"tas", tasSession, Config{Workers: 4}},
		{"tas-pruned", tasSession, Config{Workers: 4, Prune: true}},
		{"safe-agreement-crash", safeAgreementSession, Config{Workers: 4, MaxCrashes: 1, MaxSteps: 128}},
		{"safe-agreement-crash-pruned", safeAgreementSession, Config{Workers: 4, MaxCrashes: 1, MaxSteps: 128, Prune: true}},
		{"tas-many-workers", tasSession, Config{Workers: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.session()
			seq, err := ExploreSession(s, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			par, err := ExploreParallel(tc.session, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !seq.Exhausted || !par.Exhausted {
				t.Fatalf("exhausted: seq=%v par=%v", seq.Exhausted, par.Exhausted)
			}
			if seq.Runs != par.Runs || seq.Pruned != par.Pruned || seq.MaxDepth != par.MaxDepth {
				t.Fatalf("divergence: seq={runs:%d pruned:%d depth:%d} par={runs:%d pruned:%d depth:%d}",
					seq.Runs, seq.Pruned, seq.MaxDepth, par.Runs, par.Pruned, par.MaxDepth)
			}
			workerRuns := 0
			for _, w := range par.Workers {
				workerRuns += w.Runs
			}
			if workerRuns > par.Runs {
				t.Fatalf("worker runs %d exceed total %d", workerRuns, par.Runs)
			}
			t.Logf("runs=%d pruned=%d depth=%d workers=%d seq=%v par=%v",
				par.Runs, par.Pruned, par.MaxDepth, len(par.Workers), seq.Elapsed, par.Elapsed)
		})
	}
}

// TestParallelWorkerCountMisuse: worker counts <= 0 select a sane default
// instead of failing or deadlocking.
func TestParallelWorkerCountMisuse(t *testing.T) {
	for _, workers := range []int{0, -5} {
		stats, err := ExploreParallel(tasSession, Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !stats.Exhausted || stats.Runs == 0 {
			t.Fatalf("workers=%d: stats=%+v", workers, stats)
		}
	}
}

// TestParallelMaxRunsAbortsMidFrontier: a shared MaxRuns budget stops the
// pool mid-exploration with the exact sequential run count and a
// non-exhausted verdict.
func TestParallelMaxRunsAbortsMidFrontier(t *testing.T) {
	const maxRuns = 7
	cfg := Config{Workers: 4, MaxRuns: maxRuns}
	s := tasSession()
	seq, err := ExploreSession(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ExploreParallel(tasSession, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if par.Exhausted || seq.Exhausted {
		t.Fatalf("should not exhaust: seq=%v par=%v", seq.Exhausted, par.Exhausted)
	}
	if seq.Runs != maxRuns || par.Runs != maxRuns {
		t.Fatalf("runs: seq=%d par=%d, want %d each", seq.Runs, par.Runs, maxRuns)
	}
}

// TestParallelMaxRunsTruncatedPrune: a MaxRuns budget that runs dry after
// the workers have started still stops a parallel Prune walk at exactly
// MaxRuns runs, as it stops the sequential walk. Only the run count is
// comparable: which runs the workers took, and so the truncated walk's
// pruned and depth counts, depends on their timing.
func TestParallelMaxRunsTruncatedPrune(t *testing.T) {
	cfg := Config{Workers: 4, MaxCrashes: 1, MaxSteps: 128, Prune: true}
	full, err := ExploreSession(safeAgreementSession(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxRuns = full.Runs / 2
	seq, err := ExploreSession(safeAgreementSession(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ExploreParallel(safeAgreementSession, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Workers) == 0 {
		t.Fatalf("the frontier pass resolved the walk on its own (%d runs); no worker ran", par.Runs)
	}
	if seq.Exhausted || par.Exhausted {
		t.Fatalf("should not exhaust: seq=%v par=%v", seq.Exhausted, par.Exhausted)
	}
	if seq.Runs != cfg.MaxRuns || par.Runs != cfg.MaxRuns {
		t.Fatalf("runs: seq=%d par=%d, want %d each", seq.Runs, par.Runs, cfg.MaxRuns)
	}
}

// TestParallelPropertyViolationStops: a violation found by any worker stops
// the pool and surfaces a replayable PropertyError.
func TestParallelPropertyViolationStops(t *testing.T) {
	wantErr := errors.New("always fails")
	session := func() Session {
		s := tasSession()
		s.Check = func(*sched.Result) error { return wantErr }
		return s
	}
	stats, err := ExploreParallel(session, Config{Workers: 4})
	var pe *PropertyError
	if !errors.As(err, &pe) || !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want PropertyError wrapping %v", err, wantErr)
	}
	if len(pe.Script) == 0 {
		t.Fatal("script missing")
	}
	if stats.Exhausted {
		t.Fatal("a violated exploration cannot be exhausted")
	}
}

// TestParallelBodyErrorIsFatal: runtime failures inside a worker's replay
// abort the parallel exploration just like the sequential one.
func TestParallelBodyErrorIsFatal(t *testing.T) {
	session := func() Session {
		count := 0
		return Session{
			Make: func() []sched.Proc {
				count = 0
				body := func(e *sched.Env) {
					e.Step("s1")
					e.Step("s2")
					count++
					if count == 3 {
						panic("bug in body")
					}
					e.Decide(0)
				}
				return []sched.Proc{body, body, body}
			},
			Check: func(*sched.Result) error { return nil },
		}
	}
	_, err := ExploreParallel(session, Config{Workers: 4})
	if !errors.Is(err, ErrRunFailed) {
		t.Fatalf("err = %v, want ErrRunFailed", err)
	}
}

// TestParallelTinyTreeFinishesInFrontier: a tree smaller than the frontier
// target is fully enumerated by the breadth-first pass alone.
func TestParallelTinyTreeFinishesInFrontier(t *testing.T) {
	session := func() Session {
		return Session{
			Make: func() []sched.Proc {
				return []sched.Proc{func(e *sched.Env) { e.Decide(1) }}
			},
			Check: func(res *sched.Result) error {
				if res.NumDecided() != 1 {
					return errors.New("no decision")
				}
				return nil
			},
		}
	}
	stats, err := ExploreParallel(session, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exhausted || stats.Runs == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	seq, err := ExploreSession(session(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Runs != stats.Runs {
		t.Fatalf("runs: seq=%d par=%d", seq.Runs, stats.Runs)
	}
}

// registersSession: n processes each write their own register k times —
// every cross-process pair of steps commutes, the worst case for naive
// enumeration and the best case for reduction.
func registersSession(n, k int) func() Session {
	return func() Session {
		return Session{
			Make: func() []sched.Proc {
				bodies := make([]sched.Proc, n)
				for i := range bodies {
					r := reg.New[int](fmt.Sprintf("r%d", i))
					bodies[i] = func(e *sched.Env) {
						for j := 1; j <= k; j++ {
							r.Write(e, j)
						}
						e.Decide(0)
					}
				}
				return bodies
			},
			Check: func(res *sched.Result) error {
				if res.BudgetExhausted {
					return errors.New("wedged")
				}
				return nil
			},
		}
	}
}

func TestWorkerStatsThroughput(t *testing.T) {
	stats, err := ExploreParallel(registersSession(3, 2), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exhausted {
		t.Fatal("should exhaust")
	}
	if stats.Elapsed <= 0 || stats.RunsPerSec() <= 0 {
		t.Fatalf("wall-clock progress missing: %+v", stats)
	}
	busyWorkers := 0
	for _, w := range stats.Workers {
		if w.Runs > 0 {
			busyWorkers++
			if w.Busy <= 0 || w.RunsPerSec() <= 0 {
				t.Fatalf("worker %d has runs but no throughput: %+v", w.Worker, w)
			}
		}
	}
	if busyWorkers == 0 {
		t.Fatal("no worker executed any runs")
	}
}
