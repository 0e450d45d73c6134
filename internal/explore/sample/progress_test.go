package sample

import (
	"runtime"
	"sync"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/spec"
	"mpcn/internal/sched"

	// Register the built-in scenarios.
	_ "mpcn/internal/explore/sessions"
)

// TestProgressReleasesStore: once a sampling run returns, its Progress
// reports the same coverage counters as before but no longer holds the
// coverage store, and neither do the warm runtimes the workers hand back to
// a RuntimeSource — so a finished daemon job keeps no store alive. Run for
// the sequential and the parallel engine.
func TestProgressReleasesStore(t *testing.T) {
	s, err := spec.Lookup("commitadopt")
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Resolve(s, spec.Params{"n": 2})
	if err != nil {
		t.Fatal(err)
	}
	var alive func() bool // reports whether the run's store is still reachable
	t.Cleanup(func() { newCoverageStore = explore.NewVisitedStore })
	newCoverageStore = func(memBytes, shards int) *explore.VisitedStore {
		st := explore.NewVisitedStore(memBytes, shards)
		alive = st.Reachable()
		return st
	}
	for _, workers := range []int{1, 2} {
		alive = nil
		var prog explore.Progress
		var attached bool
		rt := &keepingRuntime{}
		t.Cleanup(rt.close)
		cfg := Config{Samples: 200, Seed: 1, Workers: workers, Coverage: true, Progress: &prog, Runtime: rt}
		var once sync.Once
		cfg.OnSample = func(int, []string) {
			once.Do(func() { attached = prog.Snapshot().Dedup.States > 0 })
		}
		st, err := RunParallel(spec.Factory(s, p), StrategyWalk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		live := prog.Snapshot()
		if live.Dedup != st.Coverage || live.Dedup.States != st.Distinct || live.Runs != int64(st.Samples) {
			t.Fatalf("workers=%d: snapshot %+v after return, stats %+v", workers, live, st)
		}
		if alive == nil || !attached {
			t.Fatalf("workers=%d: the store was never attached", workers)
		}
		runtime.GC()
		if alive() {
			t.Errorf("workers=%d: the store is still reachable after the run returned", workers)
		}
		if again := prog.Snapshot(); again != live {
			t.Errorf("workers=%d: snapshot changed after the store was collected: %+v vs %+v", workers, again, live)
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
