package sched_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/sched"
)

// counters is a harness of n processes that each take k labelled steps and
// decide their step count.
func counters(n, k int) explore.Session {
	return explore.Session{
		Make: func() []sched.Proc {
			bodies := make([]sched.Proc, n)
			for i := range bodies {
				bodies[i] = func(e *sched.Env) {
					c := 0
					for j := 0; j < k; j++ {
						e.Step(fmt.Sprintf("inc/%d", j))
						c++
					}
					e.Decide(c)
				}
			}
			return bodies
		},
		Check: func(*sched.Result) error { return nil },
	}
}

// TestReplayReproducesTrace: a crash-free recorded Trace is a run-only
// replay script, and replaying it strictly reproduces the trace and the
// outcomes byte-for-byte.
func TestReplayReproducesTrace(t *testing.T) {
	sess := counters(3, 6)
	orig, err := sched.Run(sched.Config{Seed: 77, TraceCapacity: 1 << 10}, sess.Make())
	if err != nil {
		t.Fatal(err)
	}
	choices := make([]explore.Choice, len(orig.Trace))
	for i, te := range orig.Trace {
		choices[i] = explore.Choice{Proc: te.Proc, Label: te.Label}
	}
	replayed, err := explore.ReplayScript(sess, explore.Script(choices), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(orig.Trace, replayed.Trace) {
		t.Fatalf("replay diverged:\nrecorded: %v\nreplayed: %v", orig.Trace, replayed.Trace)
	}
	if !reflect.DeepEqual(orig.Outcomes, replayed.Outcomes) {
		t.Fatalf("outcomes differ:\nrecorded: %+v\nreplayed: %+v", orig.Outcomes, replayed.Outcomes)
	}
}

// TestReplayExhaustedFallsBack: under loose replay an empty script degrades
// to lowest-runnable scheduling, and the run still completes.
func TestReplayExhaustedFallsBack(t *testing.T) {
	res, err := explore.ReplayLoose(counters(2, 3), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDecided() != 2 {
		t.Fatalf("decided %d of 2", res.NumDecided())
	}
}
