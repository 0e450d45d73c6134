package sched_test

import (
	"fmt"
	"testing"

	"mpcn/internal/explore"
	_ "mpcn/internal/explore/sessions" // registers the specs
	"mpcn/internal/explore/spec"
	"mpcn/internal/sched"
)

// leasedSession is an explore.RuntimeSource that hands every walker the same
// session, so its resume counter covers the whole exploration.
type leasedSession struct{ s *sched.Session }

func (l leasedSession) Acquire(n int) (*sched.Session, error) {
	if n != l.s.N() {
		return nil, fmt.Errorf("leased session has %d processes, asked for %d", l.s.N(), n)
	}
	return l.s, nil
}

func (leasedSession) Release(*sched.Session) {}

// TestTrackedCellResumes pins the coroutine resumes the direct protocol
// makes over the first 50,000 runs of the tracked cell (commit-adopt, n=3,
// crash-free). Every grant to another process parked at its yield costs one
// resume; a grant to a process below on the chain of nested resumes costs
// none, because the token yields back down to it. When the token bounced
// through the dispatcher, every cross-process grant cost one resume and the
// same prefix made 506,888 (11.0 per run over the whole cell).
func TestTrackedCellResumes(t *testing.T) {
	const runs, wantResumes = 50000, 329037
	s, err := spec.Lookup("commitadopt")
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Resolve(s, spec.Params{"n": 3, spec.ParamCrashes: 0})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sched.NewSession(3)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cfg, err := spec.Config(s, p, explore.Config{MaxRuns: runs, Runtime: leasedSession{sess}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := explore.ExploreSession(s.New(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != runs {
		t.Fatalf("runs = %d, want %d", stats.Runs, runs)
	}
	if got := sched.Resumes(sess); got != wantResumes {
		t.Fatalf("%d resumes over %d runs (%.3f per run), want %d", got, runs, float64(got)/runs, wantResumes)
	}
}

// BenchmarkHandoff measures one token handoff: n processes that step
// forever under RoundRobin, so every grant moves the token to another
// process, in one run cut by its step budget. It reports the cost of a
// grant and the coroutine resumes it takes: (n-1)/n, since the grant that
// wraps around to process 0 yields back down the chain instead.
func BenchmarkHandoff(b *testing.B) {
	label := sched.Intern("handoff")
	spin := func(e *sched.Env) {
		for {
			e.StepL(label)
		}
	}
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, err := sched.NewSession(n)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			bodies := make([]sched.Proc, n)
			for i := range bodies {
				bodies[i] = spin
			}
			before := sched.Resumes(s)
			b.ResetTimer()
			res, err := s.Run(sched.Config{Adversary: sched.NewRoundRobin(), MaxSteps: b.N}, bodies)
			b.StopTimer()
			if err != nil || !res.BudgetExhausted {
				b.Fatalf("run: err=%v result=%+v", err, res)
			}
			grants := float64(res.Steps + n) // the steps and the start grants
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/grants, "ns/grant")
			b.ReportMetric(float64(sched.Resumes(s)-before)/grants, "resumes/grant")
		})
	}
}
