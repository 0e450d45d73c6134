package explore_test

import (
	"errors"
	"fmt"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sessions"
	"mpcn/internal/reg"
	"mpcn/internal/sched"
)

// Aliases keep the test bodies readable from the external test package (the
// sessions harness package imports explore, so these tests cannot live in
// the internal test package).
type (
	Session       = explore.Session
	Config        = explore.Config
	PropertyError = explore.PropertyError
)

var (
	ExploreSession  = explore.ExploreSession
	ExploreParallel = explore.ExploreParallel
)

// TestSessionReuseMatchesRendezvous is the session-reuse acceptance
// regression: the batched walk on the direct protocol must visit exactly
// the state space of the reference walk — rendezvous-protocol sessions, no batched
// grants, an adversary rewound in full every run — with identical
// visited-run counts, pruned-branch counts, depths and exhaustion verdicts,
// on the commit-adopt exhaustive sweep, with and without crashes and
// partial-order reduction, and likewise for the x-safe sweep and the
// parallel engine.
func TestSessionReuseMatchesRendezvous(t *testing.T) {
	cases := []struct {
		name       string
		newSession func() Session
		cfg        Config
	}{
		{"commitadopt/n=2", sessions.CommitAdopt(2), Config{MaxSteps: 64}},
		{"commitadopt/n=2/crashes=1", sessions.CommitAdopt(2), Config{MaxCrashes: 1, MaxSteps: 64}},
		{"commitadopt/n=2/crashes=1/prune", sessions.CommitAdopt(2), Config{MaxCrashes: 1, MaxSteps: 64, Prune: true}},
		{"xsafe/n=2/x=2/crashes=1", sessions.XSafe(2, 2, 2), Config{MaxCrashes: 1, MaxSteps: 256}},
		{"registers/n=3/prune", sessions.Registers(3, 2, 0, reg.Atomic), Config{Prune: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline, err := ExploreSession(tc.newSession(), explore.Rendezvous(tc.cfg))
			if err != nil {
				t.Fatal(err)
			}
			direct, err := ExploreSession(tc.newSession(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if direct.Runs != baseline.Runs || direct.Pruned != baseline.Pruned ||
				direct.MaxDepth != baseline.MaxDepth || direct.Exhausted != baseline.Exhausted {
				t.Fatalf("direct walk diverged from the rendezvous reference:\ndirect:     %+v\nrendezvous: %+v",
					direct, baseline)
			}
			if baseline.Runs == 0 || !baseline.Exhausted {
				t.Fatalf("baseline did not explore: %+v", baseline)
			}
			// The parallel engine (session-backed workers) must agree too.
			par, err := ExploreParallel(tc.newSession, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if par.Runs != baseline.Runs || par.Pruned != baseline.Pruned || !par.Exhausted {
				t.Fatalf("parallel session engine diverged: par=%+v baseline=%+v", par, baseline)
			}
		})
	}
}

// TestSessionReuseByteIdenticalScripts: on a property violation, the
// failing decision script surfaced by the batched direct-protocol walk is
// identical to the rendezvous reference's — the counterexamples users
// replay do not depend on the runtime.
func TestSessionReuseByteIdenticalScripts(t *testing.T) {
	script := func(cfg Config) []string {
		s := sessions.Registers(2, 2, 0, reg.Atomic)()
		runs := 0
		inner := s.Check
		s.Check = func(res *sched.Result) error {
			if err := inner(res); err != nil {
				return err
			}
			runs++
			if runs == 5 {
				return errors.New("synthetic violation on the 5th run")
			}
			return nil
		}
		_, err := ExploreSession(s, cfg)
		var pe *PropertyError
		if !errors.As(err, &pe) {
			t.Fatalf("want PropertyError, got %v", err)
		}
		return pe.Script
	}
	cfg := Config{MaxCrashes: 1}
	baseline, direct := script(explore.Rendezvous(cfg)), script(cfg)
	if len(baseline) == 0 {
		t.Fatal("empty counterexample script")
	}
	if fmt.Sprint(baseline) != fmt.Sprint(direct) {
		t.Fatalf("counterexample scripts differ:\nrendezvous: %v\ndirect:     %v", baseline, direct)
	}
}
