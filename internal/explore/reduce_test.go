package explore

import (
	"errors"
	"fmt"
	"testing"

	"mpcn/internal/reg"
	"mpcn/internal/sched"
)

func TestLabelsIndependent(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"r0.write", "r1.write", true},           // distinct objects
		{"r0.write", "r0.write", false},          // same object, writes
		{"r0.read", "r0.read", true},             // same object, both reads
		{"r0.read", "r0.write", false},           // read vs write
		{"mem[0].write", "mem[1].write", true},   // distinct cells
		{"mem[0].write", "mem[0].read", false},   // same cell
		{"sa.SM.scan", "sa.SM.scan", true},       // scans are read-only
		{"sa.SM.scan", "sa.SM[0].update", false}, // cell update conflicts with whole-object scan
		{sched.StartLabel, "r0.write", true},     // start grants run no labelled op
		{"ts.test&set", "ts.test&set", false},    // mutating, same object
		{"plain", "plain", false},                // dot-free labels are their own object
	}
	for _, tc := range cases {
		a, b := sched.Intern(tc.a), sched.Intern(tc.b)
		if got := LabelsIndependent(a, b); got != tc.want {
			t.Errorf("LabelsIndependent(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := LabelsIndependent(b, a); got != tc.want {
			t.Errorf("predicate must be symmetric: (%q, %q)", tc.b, tc.a)
		}
	}
}

// TestPruneReducesIndependentInterleavings: processes touching disjoint
// registers generate factorially many equivalent schedules; pruning must
// collapse them while still exhausting the canonical tree.
func TestPruneReducesIndependentInterleavings(t *testing.T) {
	s := registersSession(3, 2)()
	plain, err := ExploreSession(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s = registersSession(3, 2)()
	pruned, err := ExploreSession(s, Config{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Exhausted || !pruned.Exhausted {
		t.Fatalf("exhausted: plain=%v pruned=%v", plain.Exhausted, pruned.Exhausted)
	}
	if pruned.Runs >= plain.Runs {
		t.Fatalf("pruning did not reduce: %d vs %d runs", pruned.Runs, plain.Runs)
	}
	if pruned.Pruned == 0 || plain.Pruned != 0 {
		t.Fatalf("pruned-branch counts: plain=%d pruned=%d", plain.Pruned, pruned.Pruned)
	}
	t.Logf("runs %d -> %d (%d branches pruned)", plain.Runs, pruned.Runs, pruned.Pruned)
}

// TestPruneCanonicalizesCrashPlacements: with two crashes allowed, the order
// in which a pair of processes dies is unobservable; pruning keeps only the
// ascending placement.
func TestPruneCanonicalizesCrashPlacements(t *testing.T) {
	session := func() Session {
		return Session{
			Make: func() []sched.Proc {
				r := reg.New[int]("r")
				body := func(e *sched.Env) {
					r.Write(e, 1)
					e.Decide(0)
				}
				return []sched.Proc{body, body, body}
			},
			Check: func(*sched.Result) error { return nil },
		}
	}
	s := session()
	plain, err := ExploreSession(s, Config{MaxCrashes: 2})
	if err != nil {
		t.Fatal(err)
	}
	s = session()
	pruned, err := ExploreSession(s, Config{MaxCrashes: 2, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Exhausted || !pruned.Exhausted {
		t.Fatal("both explorations should exhaust")
	}
	if pruned.Runs >= plain.Runs || pruned.Pruned == 0 {
		t.Fatalf("crash canonicalization ineffective: plain=%d pruned=%d (%d branches)",
			plain.Runs, pruned.Runs, pruned.Pruned)
	}
	t.Logf("crash placements: %d -> %d runs", plain.Runs, pruned.Runs)
}

// TestPruneKeepsDependentInterleavings: schedules over a SHARED register do
// not commute, so the write-order equivalence classes must all survive. The
// checker counts the distinct final values observed across the exploration:
// with pruning on, both final values (last writer 0 or 1) must still occur.
func TestPruneKeepsDependentInterleavings(t *testing.T) {
	finals := make(map[int]bool)
	var r *reg.Register[int]
	mk := func() []sched.Proc {
		r = reg.NewWith[int]("r", -1)
		mkBody := func(v int) sched.Proc {
			return func(e *sched.Env) {
				r.Write(e, v)
				e.Decide(0)
			}
		}
		return []sched.Proc{mkBody(0), mkBody(1)}
	}
	check := func(res *sched.Result) error {
		if res.NumDecided() == 2 {
			finals[readBack(r)] = true
		}
		return nil
	}
	stats, err := ExploreSession(Session{Make: mk, Check: check}, Config{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exhausted {
		t.Fatal("should exhaust")
	}
	if !finals[0] || !finals[1] {
		t.Fatalf("a dependent interleaving was pruned away: finals=%v", finals)
	}
}

// readBack inspects a register's final value outside any run (test-only).
func readBack(r *reg.Register[int]) int {
	var out int
	bodies := []sched.Proc{func(e *sched.Env) {
		out = r.Read(e)
		e.Decide(0)
	}}
	if _, err := sched.Run(sched.Config{}, bodies); err != nil {
		panic(err)
	}
	return out
}

// TestPruneStillFindsViolations: a property that fails on every schedule is
// reported under pruning too, with a replayable script.
func TestPruneStillFindsViolations(t *testing.T) {
	wantErr := errors.New("always fails")
	s := registersSession(2, 2)()
	s.Check = func(*sched.Result) error { return wantErr }
	_, err := ExploreSession(s, Config{Prune: true})
	var pe *PropertyError
	if !errors.As(err, &pe) || !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if len(pe.Script) == 0 {
		t.Fatal("script missing")
	}
}

// TestPruneCustomIndependence: a custom predicate overrides the label-based
// default — declaring everything dependent disables run-run pruning.
func TestPruneCustomIndependence(t *testing.T) {
	dependent := func(a, b sched.Label) bool { return false }
	s := registersSession(3, 2)()
	plain, err := ExploreSession(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s = registersSession(3, 2)()
	custom, err := ExploreSession(s, Config{Prune: true, Independent: dependent})
	if err != nil {
		t.Fatal(err)
	}
	if custom.Runs != plain.Runs {
		t.Fatalf("all-dependent predicate must disable run pruning: %d vs %d", custom.Runs, plain.Runs)
	}
}

// TestPrunedSafetyMatchesUnpruned: for a real object (test&set under one
// crash), pruning must not change the verdict — both modes exhaust, both
// find no violation, and the pruned tree is no larger.
func TestPrunedSafetyMatchesUnpruned(t *testing.T) {
	cfg := Config{MaxCrashes: 1, MaxSteps: 64}
	s := tasSession()
	plain, err := ExploreSession(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Prune = true
	s = tasSession()
	pruned, err := ExploreSession(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Exhausted || !pruned.Exhausted {
		t.Fatal("both explorations should exhaust")
	}
	if pruned.Runs > plain.Runs {
		t.Fatalf("pruned tree larger than plain: %d vs %d", pruned.Runs, plain.Runs)
	}
	t.Logf("test&set with crash: %d -> %d runs", plain.Runs, pruned.Runs)
}

func TestStatsThroughputZeroSafe(t *testing.T) {
	var s Stats
	if s.RunsPerSec() != 0 {
		t.Fatal("zero stats must not divide by zero")
	}
	var w WorkerStats
	if w.RunsPerSec() != 0 {
		t.Fatal("zero worker stats must not divide by zero")
	}
}

func ExampleExploreParallel() {
	session := func() Session {
		return Session{
			Make: func() []sched.Proc {
				r := reg.New[int]("r")
				body := func(e *sched.Env) {
					r.Write(e, 1)
					e.Decide(0)
				}
				return []sched.Proc{body, body}
			},
			Check: func(res *sched.Result) error {
				if res.NumDecided() != 2 {
					return fmt.Errorf("only %d decided", res.NumDecided())
				}
				return nil
			},
		}
	}
	stats, err := ExploreParallel(session, Config{Workers: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println(stats.Runs, stats.Exhausted)
	// Output: 6 true
}
