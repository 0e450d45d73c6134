//go:build !race

package explore

import (
	"testing"

	"mpcn/internal/reg"
	"mpcn/internal/sched"
)

// TestQuietReplayAllocs: in steady state a cached replay of a batched dedup
// walk allocates nothing. The replay plans its prefix quietly, reloads the
// branch node's digests, and then either caches the digests of the new
// branching node it reaches (obsAt), probes the store there and runs
// quietly below the cut the probe makes, or, when the branch leaves one
// runnable process and no crash budget, sprints the forced tail quietly
// without a probe. A full walk with one crash first sizes every buffer and
// visits every state; then three prefixes are replayed over and over: one
// whose branch is a run and one whose branch is a crash (at depth 2 the
// alternatives are three runs, then three crashes), both cut at the next
// node, and one that runs process 0 to its end (five grants) and then
// crashes process 1 (at depth 5 the alternatives are two runs, then two
// crashes), leaving process 2 a forced tail. Replaying a prefix again
// after itself keeps reset's contract: its branch node's digests are still
// those cached on the same path.
func TestQuietReplayAllocs(t *testing.T) {
	r := reg.New[int]("quiet")
	bodies := make([]sched.Proc, 3)
	for i := range bodies {
		bodies[i] = func(e *sched.Env) {
			for range 2 {
				v := r.Read(e)
				r.Write(e, v+1)
			}
		}
	}
	sess := Session{
		Make:        func() []sched.Proc { r.Reset(); return bodies },
		Check:       func(*sched.Result) error { return nil },
		Fingerprint: r.Fingerprint,
	}
	cfg := Config{Dedup: true, MaxCrashes: 1, Workers: 1}.withDefaults()
	store := newDedupStore(0, 0)
	l := newLane(cfg, sess, store, nil)
	defer l.retire()
	w := newWalker(cfg, l, newRunBudget(0))
	if err := w.explore(nil); err != nil {
		t.Fatal(err)
	}
	adv := &countingAdversary{scripted: w.adv}
	for _, tc := range []struct {
		prefix []int
		cut    bool // the first new node is probed and cut; else the tail sprints
	}{
		{[]int{0, 0, 1}, true},
		{[]int{0, 0, 3}, true},
		{[]int{0, 0, 0, 0, 0, 2}, false},
	} {
		prefix := tc.prefix
		wantCut := -1
		if tc.cut {
			wantCut = len(prefix)
		}
		replay := func() {
			w.adv.reset(prefix, true)
			adv.consulted = 0
			if _, err := l.Run(adv); err != nil {
				t.Fatal(err)
			}
			if w.adv.cutAt != wantCut {
				t.Fatalf("the replay of %v cut at depth %d, want %d", prefix, w.adv.cutAt, wantCut)
			}
			// The plan, the branch, and the first grant of the sprint.
			if !tc.cut && adv.consulted != 3 {
				t.Fatalf("the replay of %v consulted the adversary %d times, want 3", prefix, adv.consulted)
			}
		}
		// An uncached replay re-walks the path down to the branch node, which
		// it reaches as a new node; the prefix is then its successor.
		if _, err := w.replay(prefix[:len(prefix)-1], false); err != nil {
			t.Fatal(err)
		}
		replay()
		branch := w.adv.choices[len(prefix)-1]
		// The lane publishes its probe count in batches of runs, so the
		// probes made so far are the published ones plus the lane's own.
		probed := func() int64 { return store.lookups.Load() + l.lookups }
		lookups := probed()
		if n := testing.AllocsPerRun(100, replay); n != 0 {
			t.Errorf("a cached quiet replay branching at %v made %v allocs, want 0", branch, n)
		}
		if probes := probed() - lookups; !tc.cut && probes != 0 {
			t.Errorf("replays of %v probed the store %d times in their forced tail, want 0", prefix, probes)
		}
	}
}

// countingAdversary counts the consultations of the scripted adversary it
// wraps; sprinted grants are reported through SprintStep, not Next.
type countingAdversary struct {
	*scripted
	consulted int
}

func (c *countingAdversary) Next(v *sched.View) sched.Decision {
	c.consulted++
	return c.scripted.Next(v)
}

// TestLabelsIndependentAllocs: the independence check reads the facts the
// intern table recorded, so it allocates nothing, also on labels interned
// after earlier checks ran, each checked here for the first time.
func TestLabelsIndependentAllocs(t *testing.T) {
	read := sched.Intern("indepallocs.read")
	LabelsIndependent(read, sched.Intern("indepallocs.write"))
	late := sched.InternIndexed("%s[%d].write", "indepallocs", 101)
	i := 0
	n := testing.AllocsPerRun(100, func() {
		LabelsIndependent(late[i], read)
		i++
	})
	if n != 0 {
		t.Errorf("LabelsIndependent on late labels made %v allocs, want 0", n)
	}
}
