//go:build !race

package explore

import (
	"testing"

	"mpcn/internal/reg"
	"mpcn/internal/sched"
)

// TestQuietReplayAllocs: in steady state a cached replay of a batched dedup
// walk allocates nothing. The replay plans its prefix quietly, reloads the
// branch node's digests, caches the digests of the new node it reaches
// (obsAt) and probes the store there, and runs quietly below the cut the
// probe makes. A full walk with one crash first sizes every buffer and
// visits every state; then two prefixes are replayed over and over, one
// whose branch is a run and one whose branch is a crash (at depth 2 the
// alternatives are three runs, then three crashes). Replaying a prefix
// again after itself keeps reset's contract: its branch node's digests are
// still those cached on the same path.
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
	l := newLane(cfg, sess, newDedupStore(0, 0), nil)
	defer l.retire()
	w := newWalker(cfg, l, newRunBudget(0))
	if err := w.explore(nil); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range [][]int{{0, 0, 1}, {0, 0, 3}} {
		replay := func() {
			if _, err := w.replay(prefix, true); err != nil {
				t.Fatal(err)
			}
			if w.adv.cutAt != len(prefix) {
				t.Fatalf("the replay of %v cut at depth %d, want %d (the first new node)", prefix, w.adv.cutAt, len(prefix))
			}
		}
		// An uncached replay re-walks the path down to the branch node, which
		// it reaches as a new node; the prefix is then its successor.
		if _, err := w.replay(prefix[:len(prefix)-1], false); err != nil {
			t.Fatal(err)
		}
		replay()
		branch := w.adv.choices[len(prefix)-1]
		if n := testing.AllocsPerRun(100, replay); n != 0 {
			t.Errorf("a cached quiet replay branching at %v made %v allocs, want 0", branch, n)
		}
	}
}
