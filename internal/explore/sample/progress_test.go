package sample

import (
	"runtime"
	"sync"
	"testing"
	"weak"

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
	for _, parallel := range []bool{false, true} {
		var prog Progress
		var once sync.Once
		var store weak.Pointer[explore.VisitedStore]
		rt := &keepingRuntime{}
		t.Cleanup(rt.close)
		cfg := Config{Samples: 200, Seed: 1, Workers: 2, Coverage: true, Progress: &prog, Runtime: rt}
		cfg.OnSample = func(int, []string) {
			once.Do(func() { store = weak.Make(prog.store.Load()) })
		}
		var st Stats
		if parallel {
			st, err = RunParallel(spec.Factory(s, p), StrategyWalk, cfg)
		} else {
			st, err = Run(s.New(p), StrategyWalk, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		live := prog.Snapshot()
		if live.Coverage != st.Coverage || live.Distinct != st.Distinct || live.Samples != int64(st.Samples) {
			t.Fatalf("parallel=%v: snapshot %+v after return, stats %+v", parallel, live, st)
		}
		if store == (weak.Pointer[explore.VisitedStore]{}) {
			t.Fatalf("parallel=%v: the store was never attached", parallel)
		}
		runtime.GC()
		if store.Value() != nil {
			t.Errorf("parallel=%v: the store is still reachable after the run returned", parallel)
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
