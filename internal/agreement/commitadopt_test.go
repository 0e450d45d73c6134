package agreement

import (
	"errors"
	"fmt"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/sched"
)

type caOutcome struct {
	v         any
	committed bool
}

func runCommitAdopt(t *testing.T, proposals []any, cfg sched.Config) []caOutcome {
	t.Helper()
	n := len(proposals)
	ca := NewCommitAdopt("ca", n)
	out := make([]caOutcome, n)
	bodies := make([]sched.Proc, n)
	for i := range bodies {
		i := i
		bodies[i] = func(e *sched.Env) {
			v, c := ca.Propose(e, proposals[i])
			out[i] = caOutcome{v: v, committed: c}
			e.Decide(v)
		}
	}
	res, err := sched.Run(cfg, bodies)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.BudgetExhausted {
		t.Fatal("commit-adopt must be wait-free")
	}
	return out
}

func checkCommitAdopt(t *testing.T, proposals []any, out []caOutcome) {
	t.Helper()
	proposed := make(map[any]bool)
	for _, p := range proposals {
		proposed[p] = true
	}
	var committed any
	for i, o := range out {
		if o.v == nil {
			continue // crashed before returning
		}
		if !proposed[o.v] {
			t.Fatalf("process %d adopted %v, never proposed", i, o.v)
		}
		if o.committed {
			if committed != nil && committed != o.v {
				t.Fatalf("two different commits: %v and %v", committed, o.v)
			}
			committed = o.v
		}
	}
	if committed == nil {
		return
	}
	for i, o := range out {
		if o.v != nil && o.v != committed {
			t.Fatalf("process %d returned %v but %v was committed", i, o.v, committed)
		}
	}
}

func TestCommitAdoptConvergence(t *testing.T) {
	// Unanimous proposals: everyone commits.
	for seed := int64(0); seed < 10; seed++ {
		proposals := []any{7, 7, 7, 7}
		out := runCommitAdopt(t, proposals, sched.Config{Seed: seed})
		for i, o := range out {
			if !o.committed || o.v != 7 {
				t.Fatalf("seed %d: process %d got %+v, want committed 7", seed, i, o)
			}
		}
	}
}

func TestCommitAdoptAgreementUnderContention(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		proposals := []any{1, 2, 3}
		out := runCommitAdopt(t, proposals, sched.Config{Seed: seed})
		checkCommitAdopt(t, proposals, out)
	}
}

func TestCommitAdoptSoloCommits(t *testing.T) {
	// A process that runs alone (others initially dead) sees only its own
	// proposal and must commit it.
	proposals := []any{1, 2, 3}
	ca := NewCommitAdopt("ca", 3)
	var got caOutcome
	bodies := []sched.Proc{
		func(e *sched.Env) {
			v, c := ca.Propose(e, proposals[0])
			got = caOutcome{v: v, committed: c}
			e.Decide(v)
		},
		func(e *sched.Env) { ca.Propose(e, proposals[1]); e.Decide(0) },
		func(e *sched.Env) { ca.Propose(e, proposals[2]); e.Decide(0) },
	}
	adv := sched.NewCrashSet(sched.NewRoundRobin(), 1, 2)
	if _, err := sched.Run(sched.Config{Adversary: adv}, bodies); err != nil {
		t.Fatal(err)
	}
	if !got.committed || got.v != 1 {
		t.Fatalf("solo proposer got %+v, want committed 1", got)
	}
}

func TestCommitAdoptWaitFreeUnderCrashes(t *testing.T) {
	// Crashes at arbitrary points never block the survivors (contrast with
	// safe_agreement, whose decide can block forever).
	for seed := int64(0); seed < 10; seed++ {
		proposals := []any{1, 2, 3, 4}
		ca := NewCommitAdopt("ca", 4)
		out := make([]caOutcome, 4)
		bodies := make([]sched.Proc, 4)
		for i := range bodies {
			i := i
			bodies[i] = func(e *sched.Env) {
				v, c := ca.Propose(e, proposals[i])
				out[i] = caOutcome{v: v, committed: c}
				e.Decide(v)
			}
		}
		adv := sched.NewPlan(sched.NewRandom(seed)).
			CrashAfterProcSteps(0, int(seed%4)+1).
			CrashAfterProcSteps(1, int(seed%3)+1)
		res, err := sched.Run(sched.Config{Adversary: adv, MaxSteps: 10000}, bodies)
		if err != nil {
			t.Fatal(err)
		}
		if res.BudgetExhausted {
			t.Fatalf("seed %d: blocked — commit-adopt must be wait-free", seed)
		}
		checkCommitAdopt(t, proposals, out)
	}
}

func TestCommitAdoptMisuse(t *testing.T) {
	t.Run("double propose", func(t *testing.T) {
		ca := NewCommitAdopt("ca", 2)
		bodies := []sched.Proc{func(e *sched.Env) {
			ca.Propose(e, 1)
			ca.Propose(e, 2)
		}}
		if _, err := sched.Run(sched.Config{}, bodies); err == nil {
			t.Fatal("double propose accepted")
		}
	})
	t.Run("nil proposal", func(t *testing.T) {
		ca := NewCommitAdopt("ca", 1)
		bodies := []sched.Proc{func(e *sched.Env) { ca.Propose(e, nil) }}
		if _, err := sched.Run(sched.Config{}, bodies); err == nil {
			t.Fatal("nil proposal accepted")
		}
	})
	t.Run("invalid size", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("n = 0 accepted")
			}
		}()
		NewCommitAdopt("ca", 0)
	})
}

// commitAdoptSession packages one commit-adopt configuration for the
// exhaustive explorer: every proposer records its (value, committed) result
// and the checker enforces the four properties plus wait-freedom. The
// checker treats the result set as a multiset, so it is insensitive to the
// reordering of commuting operations, as Config.Prune requires.
func commitAdoptSession(proposals []any) func() explore.Session {
	n := len(proposals)
	return func() explore.Session {
		var outs []caOutcome
		return explore.Session{
			Make: func() []sched.Proc {
				outs = outs[:0]
				ca := NewCommitAdopt("ca", n)
				bodies := make([]sched.Proc, n)
				for i := range bodies {
					i := i
					bodies[i] = func(e *sched.Env) {
						v, c := ca.Propose(e, proposals[i])
						outs = append(outs, caOutcome{v: v, committed: c})
						e.Decide(v)
					}
				}
				return bodies
			},
			Check: func(res *sched.Result) error {
				if res.BudgetExhausted {
					return errors.New("wedged: commit-adopt must be wait-free")
				}
				proposed := make(map[any]bool)
				for _, p := range proposals {
					proposed[p] = true
				}
				var committed any
				for _, o := range outs {
					if !proposed[o.v] {
						return fmt.Errorf("non-proposed value %v", o.v)
					}
					if o.committed {
						if committed != nil && committed != o.v {
							return fmt.Errorf("two commits: %v, %v", committed, o.v)
						}
						committed = o.v
					}
				}
				if committed != nil {
					for _, o := range outs {
						if o.v != committed {
							return fmt.Errorf("adopted %v after commit %v", o.v, committed)
						}
					}
				}
				return nil
			},
		}
	}
}

// TestExhaustiveCommitAdoptProperties replaces the earlier sampled
// quick-check: the four commit-adopt properties (and wait-freedom) hold on
// EVERY schedule of 2 distinct proposers with at most one crash — an actual
// proof for the bounded configuration, not a sweep.
func TestExhaustiveCommitAdoptProperties(t *testing.T) {
	s := commitAdoptSession([]any{1, 2})()
	stats, err := explore.ExploreSession(s, explore.Config{MaxCrashes: 1, MaxSteps: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exhausted {
		t.Fatal("exploration should exhaust")
	}
	t.Logf("proved on %d runs (max depth %d)", stats.Runs, stats.MaxDepth)
}

// TestExhaustiveCommitAdoptThreeProposers widens the proof to 3 proposers
// (crash-free) using partial-order reduction — the unpruned tree is in the
// hundreds of thousands of runs — and uses the parallel explorer as the
// engine, asserting it visits the exact run count of the sequential one
// (determinism regression).
func TestExhaustiveCommitAdoptThreeProposers(t *testing.T) {
	proposals := []any{1, 2, 2}
	cfg := explore.Config{MaxSteps: 128, Prune: true, Workers: 4}
	s := commitAdoptSession(proposals)()
	seq, err := explore.ExploreSession(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := explore.ExploreParallel(commitAdoptSession(proposals), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Exhausted || !par.Exhausted {
		t.Fatalf("exhausted: seq=%v par=%v", seq.Exhausted, par.Exhausted)
	}
	if seq.Runs != par.Runs || seq.Pruned != par.Pruned {
		t.Fatalf("parallel/sequential divergence: seq={%d runs, %d pruned} par={%d runs, %d pruned}",
			seq.Runs, seq.Pruned, par.Runs, par.Pruned)
	}
	t.Logf("proved on %d runs (%d branches pruned)", par.Runs, par.Pruned)
}
