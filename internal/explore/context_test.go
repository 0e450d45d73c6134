package explore

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"mpcn/internal/sched"
)

// TestContextPreCanceledSequential: a canceled context stops the sequential
// walk before its first run and surfaces the context's error.
func TestContextPreCanceledSequential(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := ExploreSessionContext(ctx, tasSession(), Config{MaxSteps: 64})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Exhausted {
		t.Fatal("canceled exploration must not report exhaustion")
	}
	if st.Runs != 0 {
		t.Fatalf("canceled-before-start exploration ran %d runs", st.Runs)
	}
}

// TestContextCancelMidWalk: canceling from the checker stops the sequential
// walk at the next run boundary with partial stats.
func TestContextCancelMidWalk(t *testing.T) {
	full, err := ExploreSession(tasSession(), Config{MaxSteps: 64})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := tasSession()
	base := s.Check
	runs := 0
	s.Check = func(res *sched.Result) error {
		runs++
		if runs == 3 {
			cancel()
		}
		return base(res)
	}
	st, err := ExploreSessionContext(ctx, s, Config{MaxSteps: 64})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Exhausted || st.Runs >= full.Runs || st.Runs < 3 {
		t.Fatalf("partial stats wrong: runs=%d (full %d), exhausted=%v", st.Runs, full.Runs, st.Exhausted)
	}
}

// TestContextCancelParallel: cancellation halts every worker of a parallel
// exploration; the error is the context's.
func TestContextCancelParallel(t *testing.T) {
	full, err := ExploreParallel(registersSession(3, 3), Config{Workers: 4, MaxSteps: 256})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var runs atomic.Int64
	mk := func() Session {
		s := registersSession(3, 3)()
		base := s.Check
		s.Check = func(res *sched.Result) error {
			if runs.Add(1) == 20 {
				cancel()
			}
			return base(res)
		}
		return s
	}
	st, err := ExploreParallelContext(ctx, mk, Config{Workers: 4, MaxSteps: 256})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Exhausted || st.Runs >= full.Runs {
		t.Fatalf("partial stats wrong: runs=%d (full %d), exhausted=%v", st.Runs, full.Runs, st.Exhausted)
	}
}

// TestContextViolationOutranksCancel: a property violation found before the
// cancellation still surfaces as the PropertyError, not the context error.
func TestContextViolationOutranksCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := tasSession()
	base := s.Check
	runs := 0
	s.Check = func(res *sched.Result) error {
		runs++
		if runs == 2 {
			cancel()
			return errors.New("violated just before cancel")
		}
		return base(res)
	}
	_, err := ExploreSessionContext(ctx, s, Config{MaxSteps: 64})
	var pe *PropertyError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PropertyError", err)
	}
}

// TestProgressTracksStats: the live Progress counters converge to the final
// Stats for both engines, and expose the dedup store's distinct-state count.
func TestProgressTracksStats(t *testing.T) {
	var prog Progress
	st, err := ExploreSession(tasSession(), Config{MaxSteps: 64, Progress: &prog})
	if err != nil {
		t.Fatal(err)
	}
	snap := prog.Snapshot()
	if snap.Runs != int64(st.Runs) || snap.Pruned != int64(st.Pruned) {
		t.Fatalf("sequential progress %+v diverges from stats runs=%d pruned=%d", snap, st.Runs, st.Pruned)
	}

	var pprog Progress
	pst, err := ExploreParallel(registersSession(2, 2), Config{Workers: 4, MaxSteps: 128, Progress: &pprog})
	if err != nil {
		t.Fatal(err)
	}
	psnap := pprog.Snapshot()
	if psnap.Runs != int64(pst.Runs) || psnap.Pruned != int64(pst.Pruned) {
		t.Fatalf("parallel progress %+v diverges from stats runs=%d pruned=%d", psnap, pst.Runs, pst.Pruned)
	}

	var dprog Progress
	dst, err := ExploreSession(sessionCommitAdopt(2)(), Config{MaxSteps: 128, Dedup: true, Progress: &dprog})
	if err != nil {
		t.Fatal(err)
	}
	dsnap := dprog.Snapshot()
	if dsnap.Dedup.States != dst.Dedup.States || dsnap.Dedup.States == 0 {
		t.Fatalf("dedup progress states=%d, stats states=%d", dsnap.Dedup.States, dst.Dedup.States)
	}
}

// TestProgressReleasesStore: once an exploration returns, its Progress
// reports the same dedup counters as before but no longer holds the store,
// and neither do the warm runtimes the walkers hand back to a RuntimeSource —
// so a finished daemon job keeps no visited store alive. Run for the
// sequential and the parallel engine.
func TestProgressReleasesStore(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		var prog Progress
		var once sync.Once
		var store weak.Pointer[dedupStore]
		newSession := func() Session {
			s := sessionCommitAdopt(2)()
			check := s.Check
			s.Check = func(res *sched.Result) error {
				once.Do(func() { store = weak.Make(prog.store.Load()) })
				return check(res)
			}
			return s
		}
		rt := &keepingRuntime{}
		t.Cleanup(rt.close)
		cfg := Config{MaxSteps: 128, Dedup: true, Progress: &prog, Runtime: rt, Workers: 2}
		var st Stats
		var err error
		if parallel {
			st, err = ExploreParallel(newSession, cfg)
		} else {
			st, err = ExploreSession(newSession(), cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		live := prog.Snapshot()
		want := st.Dedup
		want.CutAlternatives = 0
		if live.Dedup != want || live.Runs != int64(st.Runs) {
			t.Fatalf("parallel=%v: snapshot %+v after return, stats %+v", parallel, live, st)
		}
		if store == (weak.Pointer[dedupStore]{}) {
			t.Fatalf("parallel=%v: the store was never attached", parallel)
		}
		runtime.GC()
		if store.Value() != nil {
			t.Errorf("parallel=%v: the store is still reachable after the exploration returned", parallel)
		}
		if again := prog.Snapshot(); again != live {
			t.Errorf("parallel=%v: snapshot changed after the store was collected: %+v vs %+v", parallel, again, live)
		}
	}
}

// keepingRuntime is a RuntimeSource that keeps every released session warm
// until close, as the daemon's session pool does.
type keepingRuntime struct {
	mu   sync.Mutex
	kept []*sched.Session
}

func (k *keepingRuntime) Acquire(n int) (*sched.Session, error) {
	return sched.NewSession(n)
}

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

// rendezvousRuntime is a RuntimeSource leasing rendezvous-protocol
// sessions, the differential reference of the direct protocol.
type rendezvousRuntime struct{}

func (rendezvousRuntime) Acquire(n int) (*sched.Session, error) {
	return sched.NewSessionWith(n, sched.SessionOptions{Rendezvous: true})
}

func (rendezvousRuntime) Release(rt *sched.Session) { rt.Close() }

// Rendezvous returns cfg walked on rendezvous-protocol sessions without
// batched grants: the reference walk the direct, batched engine must
// match. Under NoBatch, scripted.reset always rewinds in full, so every
// run starts from an adversary in its fresh state. Exported for the
// external test package.
func Rendezvous(cfg Config) Config {
	cfg.Runtime = rendezvousRuntime{}
	cfg.NoBatch = true
	return cfg
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

// TestRuntimeSourceLeases: with Config.Runtime set, every walker leases its
// runtime from the source and returns it.
func TestRuntimeSourceLeases(t *testing.T) {
	var src countingRuntime
	if _, err := ExploreSession(tasSession(), Config{MaxSteps: 64, Runtime: &src}); err != nil {
		t.Fatal(err)
	}
	if src.acquired.Load() == 0 {
		t.Fatal("sequential exploration never leased from the RuntimeSource")
	}
	if a, r := src.acquired.Load(), src.released.Load(); a != r {
		t.Fatalf("lease imbalance: %d acquired, %d released", a, r)
	}

	var psrc countingRuntime
	if _, err := ExploreParallel(registersSession(2, 2), Config{Workers: 4, MaxSteps: 128, Runtime: &psrc}); err != nil {
		t.Fatal(err)
	}
	if psrc.acquired.Load() == 0 {
		t.Fatal("parallel exploration never leased from the RuntimeSource")
	}
	if a, r := psrc.acquired.Load(), psrc.released.Load(); a != r {
		t.Fatalf("lease imbalance: %d acquired, %d released", a, r)
	}
}
