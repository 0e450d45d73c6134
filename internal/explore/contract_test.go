package explore_test

// The engine contract: both engines run on the one engine core (its lanes
// and worker pool), so every contract of the core is checked as one table
// over {explore, sample} × {1 worker, 2 workers} — cancellation, progress,
// runtime leasing, panic re-raise, no goroutine or poisoned session left
// behind by a job that ends badly, and violation scripts that replay.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/sessions"
	"mpcn/internal/reg"
	"mpcn/internal/sched"
	"mpcn/internal/service"
)

// engine is one row of the contract tables: an engine at a worker count.
type engine struct {
	name    string
	workers int
}

var engines = []engine{
	{"explore/1", 1}, {"explore/2", 2},
	{"sample/1", 1}, {"sample/2", 2},
}

func (e engine) sampling() bool { return strings.HasPrefix(e.name, "sample") }

// job configures one engine call: a visited store (dedup, or sampling
// coverage), a runtime source, a progress sink.
type job struct {
	store    bool
	runtime  explore.RuntimeSource
	progress *explore.Progress
	samples  int // sampling budget (0 = 200)
}

// outcome is what the tables compare across engines: the runs done (samples
// for sampling), whether the job covered everything it was asked to, and
// the visited store's final counters.
type outcome struct {
	runs     int
	complete bool
	store    explore.DedupStats
}

func (e engine) run(ctx context.Context, mk func() explore.Session, j job) (outcome, error) {
	if e.sampling() {
		samples := j.samples
		if samples == 0 {
			samples = 200
		}
		st, err := sample.RunContext(ctx, mk, sample.StrategyWalk, sample.Config{
			Samples: samples, Seed: 1, Workers: e.workers, MaxSteps: 256,
			Coverage: j.store, Runtime: j.runtime, Progress: j.progress,
		})
		return outcome{runs: st.Samples, complete: st.Samples == samples, store: st.Coverage}, err
	}
	st, err := explore.ExploreContext(ctx, mk, explore.Config{
		Workers: e.workers, MaxSteps: 256,
		Dedup: j.store, Runtime: j.runtime, Progress: j.progress,
	})
	d := st.Dedup
	d.CutAlternatives = 0 // a walk-side tally, not a store counter
	return outcome{runs: st.Runs, complete: st.Exhausted, store: d}, err
}

// checked wraps mk's Check with hook, called with the 1-based index of
// every checked run across all of the job's workers.
func checked(mk func() explore.Session, hook func(n int64)) func() explore.Session {
	var runs atomic.Int64
	return func() explore.Session {
		s := mk()
		check := s.Check
		s.Check = func(res *sched.Result) error {
			hook(runs.Add(1))
			return check(res)
		}
		return s
	}
}

// TestContextPreCanceled: a canceled context stops the job before its first
// run and surfaces the context's error.
func TestContextPreCanceled(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			out, err := e.run(ctx, sessions.CommitAdopt(2), job{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if out.complete {
				t.Fatal("a canceled job must not report completion")
			}
			if out.runs != 0 {
				t.Fatalf("canceled-before-start job ran %d runs", out.runs)
			}
		})
	}
}

// TestContextCancelMidWalk: canceling from the checker stops every worker
// at its next run boundary, with partial stats and the context's error.
func TestContextCancelMidWalk(t *testing.T) {
	mk := sessions.Registers(3, 3, 0, reg.Atomic)
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			full, err := e.run(context.Background(), mk, job{samples: 100000})
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const at = 20
			out, err := e.run(ctx, checked(mk, func(n int64) {
				if n == at {
					cancel()
				}
			}), job{samples: 100000})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if out.complete || out.runs >= full.runs || out.runs < at {
				t.Fatalf("partial stats wrong: runs=%d (full %d), complete=%v", out.runs, full.runs, out.complete)
			}
		})
	}
}

// TestProgressReleasesStore: once a job returns, its Progress reports the
// same counters as the returned stats but no longer holds the visited
// store, and neither do the warm runtimes the lanes hand back to a
// RuntimeSource — so a finished daemon job keeps no store alive.
func TestProgressReleasesStore(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			var prog explore.Progress
			var once sync.Once
			var alive func() bool // reports whether the store is still reachable
			mk := checked(sessions.CommitAdopt(2), func(int64) {
				once.Do(func() {
					if st := explore.AttachedStore(&prog); st != nil {
						w := weak.Make(st)
						alive = func() bool { return w.Value() != nil }
					}
				})
			})
			rt := &keepingRuntime{}
			t.Cleanup(rt.close)
			out, err := e.run(context.Background(), mk, job{store: true, runtime: rt, progress: &prog})
			if err != nil {
				t.Fatal(err)
			}
			live := prog.Snapshot()
			if live.Dedup != out.store || live.Runs != int64(out.runs) {
				t.Fatalf("snapshot %+v after return, stats runs=%d store=%+v", live, out.runs, out.store)
			}
			if alive == nil {
				t.Fatal("the store was never attached")
			}
			runtime.GC()
			if alive() {
				t.Error("the store is still reachable after the job returned")
			}
			if again := prog.Snapshot(); again != live {
				t.Errorf("snapshot changed after the store was collected: %+v vs %+v", again, live)
			}
		})
	}
}

// TestRuntimeSourceLeases: with Config.Runtime set, every lane leases its
// runtime from the source and returns it.
func TestRuntimeSourceLeases(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			var src countingRuntime
			if _, err := e.run(context.Background(), sessions.CommitAdopt(2), job{runtime: &src}); err != nil {
				t.Fatal(err)
			}
			if src.acquired.Load() == 0 {
				t.Fatal("the job never leased from the RuntimeSource")
			}
			if a, r := src.acquired.Load(), src.released.Load(); a != r {
				t.Fatalf("lease imbalance: %d acquired, %d released", a, r)
			}
		})
	}
}

// TestCheckerPanicPropagates: a panic inside a checker is re-raised on the
// caller's goroutine instead of deadlocking the pool.
func TestCheckerPanicPropagates(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			r := checkerPanic(t, e)
			if r == nil {
				t.Fatal("panic did not propagate")
			}
			if !strings.Contains(fmt.Sprint(r), "checker exploded") {
				t.Fatalf("unexpected panic value: %v", r)
			}
		})
	}
}

// checkerPanic runs e on a harness whose checker panics on the third run
// and returns the recovered panic value.
func checkerPanic(t *testing.T, e engine) any {
	t.Helper()
	return checkerPanicOn(t, e, sessions.CommitAdopt(2), false)
}

// checkerPanicOn is checkerPanic on mk's harness, with a visited store when
// store is set.
func checkerPanicOn(t *testing.T, e engine, mk func() explore.Session, store bool) (r any) {
	t.Helper()
	defer func() { r = recover() }()
	mk = checked(mk, func(n int64) {
		if n == 3 {
			panic("checker exploded")
		}
	})
	_, _ = e.run(context.Background(), mk, job{store: store})
	return nil
}

// TestViolationScriptReplays: the PropertyError.Script a violating cell
// hands back replays strictly on a fresh harness and gives the same checker
// error.
func TestViolationScriptReplays(t *testing.T) {
	mk := sessions.Registers(2, 1, 1, reg.Regular)
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			_, err := e.run(context.Background(), mk, job{})
			var pe *explore.PropertyError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want a PropertyError", err)
			}
			want := pe.Err
			var se *sample.SampleError
			if errors.As(want, &se) {
				want = se.Err
			}
			sess := mk()
			res, err := explore.ReplayScript(sess, pe.Script, 256)
			if err != nil {
				t.Fatalf("strict replay: %v\nscript: %v", err, pe.Script)
			}
			if got := sess.Check(res); got == nil || got.Error() != want.Error() {
				t.Fatalf("replayed verdict %v, want %v", got, want)
			}
		})
	}
}

// leakHarnesses are the harnesses of TestJobsLeakNoGoroutines' rows:
// commit-adopt, whose sessions keep nothing between runs, and BG, whose
// sessions keep their engine's simulator threads parked on coroutines until
// the lane retires. BG has no fingerprint, so its rows run without a
// visited store.
var leakHarnesses = []leakHarness{
	{"", sessions.CommitAdopt(2), true},
	{"bg/", mustBG(2, 1), false},
}

type leakHarness struct {
	prefix string // subtest name prefix
	mk     func() explore.Session
	store  bool
}

func mustBG(n, t int) func() explore.Session {
	mk, err := sessions.BG(n, t)
	if err != nil {
		panic(err)
	}
	return mk
}

// TestJobsLeakNoGoroutines: a job that ends badly — cancelled, its checker
// panicking, a process body panicking — leaves no goroutine behind (lanes,
// relay, process coroutines and the BG simulator threads all end), and a
// body panic hands its runtime back closed: the session comes back
// !Healthy() and the daemon's SessionPool never leases it again.
func TestJobsLeakNoGoroutines(t *testing.T) {
	for _, e := range engines {
		for _, h := range leakHarnesses {
			jobsLeakRows(t, e, h)
		}
	}
}

// jobsLeakRows runs TestJobsLeakNoGoroutines' three rows for engine e on
// harness h.
func jobsLeakRows(t *testing.T, e engine, h leakHarness) {
	name := e.name + "/" + h.prefix
	t.Run(name+"cancel", func(t *testing.T) {
		before := settledGoroutines()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		mk := checked(h.mk, func(n int64) {
			if n == 20 {
				cancel()
			}
		})
		if _, err := e.run(ctx, mk, job{store: h.store, samples: 100000}); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got := settledGoroutines(); got > before {
			t.Fatalf("goroutines %d -> %d over a cancelled job", before, got)
		}
	})
	t.Run(name+"checker-panic", func(t *testing.T) {
		before := settledGoroutines()
		if checkerPanicOn(t, e, h.mk, h.store) == nil {
			t.Fatal("panic did not propagate")
		}
		if got := settledGoroutines(); got > before {
			t.Fatalf("goroutines %d -> %d over a job whose checker panicked", before, got)
		}
	})
	t.Run(name+"body-panic", func(t *testing.T) {
		before := settledGoroutines()
		pool := service.NewSessionPool(0)
		src := &recordingRuntime{pool: pool}
		var runs atomic.Int64
		mk := func() explore.Session {
			s := h.mk()
			make := s.Make
			s.Make = func() []sched.Proc {
				bodies := make()
				if runs.Add(1) != 3 {
					return bodies
				}
				return append([]sched.Proc{func(*sched.Env) { panic("bug in body") }}, bodies[1:]...)
			}
			return s
		}
		if _, err := e.run(context.Background(), mk, job{runtime: src}); !errors.Is(err, explore.ErrRunFailed) {
			t.Fatalf("err = %v, want ErrRunFailed", err)
		}
		broken := src.unhealthy()
		if len(broken) == 0 {
			t.Fatal("the runtime of the failed run came back healthy")
		}
		// Lease more sessions than the pool can hold idle: none is broken.
		var leased []*sched.Session
		for range len(src.released) + 1 {
			rt, err := pool.Acquire(2)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range broken {
				if rt == b {
					t.Fatal("the pool leased a broken session again")
				}
			}
			leased = append(leased, rt)
		}
		for _, rt := range leased {
			pool.Release(rt)
		}
		pool.Close()
		if got := settledGoroutines(); got > before {
			t.Fatalf("goroutines %d -> %d over a job whose body panicked", before, got)
		}
	})
}

// keepingRuntime is a RuntimeSource that keeps every released session warm
// until close, as the daemon's session pool does.
type keepingRuntime struct {
	mu   sync.Mutex
	kept []*sched.Session
}

func (k *keepingRuntime) Acquire(n int) (*sched.Session, error) { return sched.NewSession(n) }

func (k *keepingRuntime) Release(rt *sched.Session) {
	k.mu.Lock()
	k.kept = append(k.kept, rt)
	k.mu.Unlock()
}

func (k *keepingRuntime) close() {
	for _, rt := range k.kept {
		rt.Close()
	}
}

// countingRuntime wraps the default session source, counting the lease
// traffic.
type countingRuntime struct {
	acquired atomic.Int64
	released atomic.Int64
}

func (c *countingRuntime) Acquire(n int) (*sched.Session, error) {
	c.acquired.Add(1)
	return sched.NewSession(n)
}

func (c *countingRuntime) Release(rt *sched.Session) {
	c.released.Add(1)
	rt.Close()
}

// recordingRuntime leases from a service.SessionPool and records every
// session handed back, with its health at the time.
type recordingRuntime struct {
	pool     *service.SessionPool
	mu       sync.Mutex
	released []*sched.Session
	healthy  []bool
}

func (r *recordingRuntime) Acquire(n int) (*sched.Session, error) { return r.pool.Acquire(n) }

func (r *recordingRuntime) Release(rt *sched.Session) {
	r.mu.Lock()
	r.released = append(r.released, rt)
	r.healthy = append(r.healthy, rt.Healthy())
	r.mu.Unlock()
	r.pool.Release(rt)
}

func (r *recordingRuntime) unhealthy() []*sched.Session {
	var out []*sched.Session
	for i, rt := range r.released {
		if !r.healthy[i] {
			out = append(out, rt)
		}
	}
	return out
}

// settledGoroutines returns runtime.NumGoroutine once it has held still for
// a few polls (or after a second at most). Goroutines left by earlier tests
// exit asynchronously; a count taken while they wind down would make the
// leak check flaky, while a leaked goroutine never exits and still shows
// up.
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
