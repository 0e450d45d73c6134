package explore

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"mpcn/internal/sched"
)

// TestContextPreCanceledSequential: a canceled context stops the sequential
// walk before its first run and surfaces the context's error.
func TestContextPreCanceledSequential(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := ExploreContext(ctx, func() Session { return tasSession() }, Config{Workers: 1, MaxSteps: 64})
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

// TestContextCancelParallel: cancellation halts every worker of a parallel
// exploration; the error is the context's.
func TestContextCancelParallel(t *testing.T) {
	full, err := ExploreParallel(registersSession(3, 3), Config{Workers: 4, MaxSteps: 256})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
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
	st, err := ExploreContext(ctx, mk, Config{Workers: 4, MaxSteps: 256})
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
	_, err := ExploreContext(ctx, func() Session { return s }, Config{Workers: 1, MaxSteps: 64})
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

// AttachedStore returns the visited store p currently exposes (nil once
// the job returned). Exported for the engine-contract tables of the
// external test package.
func AttachedStore(p *Progress) *dedupStore { return p.store.Load() }
