package explore_test

import (
	"fmt"
	"sync"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/spec"
	"mpcn/internal/sched"

	// Register every built-in scenario: the test runs against spec.All().
	_ "mpcn/internal/explore/sessions"
)

// probes records the store keys a dedup walk computes, one per probe: the
// wrapped Fingerprint folds the harness into the walker's accumulator, which
// already holds the control points and observation digests, so its Sum is
// the key the walker offers the visited store. With unique set, the wrapper
// then folds a probe counter into the accumulator, so that the store never
// hits and the walk probes every node of the tree.
type probes struct {
	unique bool
	mu     sync.Mutex
	keys   []sched.Fingerprint
}

// factory returns newSession with every session's Fingerprint recording.
func (r *probes) factory(newSession func() explore.Session) func() explore.Session {
	return func() explore.Session {
		sess := newSession()
		fp := sess.Fingerprint
		sess.Fingerprint = func(h *sched.FP) {
			fp(h)
			r.mu.Lock()
			r.keys = append(r.keys, h.Sum())
			if r.unique {
				h.Int(len(r.keys))
			}
			r.mu.Unlock()
		}
		return sess
	}
}

// walk explores cfg on sessions recording into r and returns the probe keys
// in the order the walk made them.
func (r *probes) walk(t *testing.T, newSession func() explore.Session, cfg explore.Config) []sched.Fingerprint {
	t.Helper()
	st, err := explore.ExploreParallel(r.factory(newSession), cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	if cfg.MaxRuns == 0 && !st.Exhausted {
		t.Fatalf("%+v: walk did not exhaust", cfg)
	}
	return r.keys
}

// TestDedupQuietReplayMatchesObserved: a batched dedup walk folds
// observation digests only where a fingerprint reads them. A cached replay
// runs its prefix quietly and reloads the branch node's digests from the
// node's first visit, and every decision at or below a cut is quiet. The
// walk must still offer the store the keys of fully observed walks, NoBatch
// walks, which observe every grant. Sequentially the batched and the NoBatch
// walk probe the same nodes in the same order, so their key sequences must
// be equal. A parallel walk's cuts depend on timing, so each key it probes
// must be among those of a NoBatch walk that probes every node of the tree.
// Every registered spec with a Fingerprint is covered, in plain, Prune and
// Symmetry walks. Unbounded specs are bounded by a run budget and walked
// sequentially only: a budget makes a parallel walk's share of the tree
// timing-dependent.
func TestDedupQuietReplayMatchesObserved(t *testing.T) {
	covered, parallel := 0, 0
	for _, s := range spec.All() {
		if !s.SupportsDedup() {
			continue
		}
		covered++
		t.Run(s.Name(), func(t *testing.T) {
			crashes, p := []int{0, 1}, spec.Params{}
			base := explore.Config{}
			if spec.Unbounded(s) {
				crashes, p = []int{0}, spec.Params{spec.ParamSteps: 400}
				base.MaxRuns = 300
			}
			modes := []explore.Config{base}
			if s.SupportsPrune() {
				c := base
				c.Prune = true
				modes = append(modes, c)
			}
			if s.SupportsSymmetry() {
				c := base
				c.Symmetry = true
				modes = append(modes, c)
			}
			for _, k := range crashes {
				p[spec.ParamCrashes] = k
				resolved, err := spec.Resolve(s, p)
				if err != nil {
					t.Fatalf("Resolve: %v", err)
				}
				for _, mode := range modes {
					mode.Dedup = true
					cfg, err := spec.Config(s, resolved, mode)
					if err != nil {
						t.Fatalf("Config: %v", err)
					}
					name := fmt.Sprintf("crashes=%d/prune=%v/symmetry=%v", k, mode.Prune, mode.Symmetry)
					parallel += quietReplay(t, name, spec.Factory(s, resolved), cfg)
				}
			}
		})
	}
	if covered == 0 {
		t.Fatal("no registered spec carries a Fingerprint")
	}
	if parallel == 0 {
		t.Fatal("no parallel walk probed the store: every tree was resolved by the frontier pass")
	}
}

// quietReplay checks one cell and returns the number of probes its parallel
// walk made (0 when the cell has a run budget).
func quietReplay(t *testing.T, name string, newSession func() explore.Session, cfg explore.Config) int {
	t.Helper()
	cfg.Workers = 1
	observed := cfg
	observed.NoBatch = true
	want := new(probes).walk(t, newSession, observed)
	got := new(probes).walk(t, newSession, cfg)
	if len(want) == 0 {
		t.Fatalf("%s: the sequential walk probed no state", name)
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("%s: sequential probe %d of %d (observed walk: %d) differs from the observed walk's",
			name, i, len(got), len(want))
	}
	if cfg.MaxRuns > 0 {
		return 0
	}
	every := &probes{unique: true}
	nodes := make(map[sched.Fingerprint]bool)
	for _, k := range every.walk(t, newSession, observed) {
		nodes[k] = true
	}
	cfg.Workers = 2
	par := new(probes).walk(t, newSession, cfg)
	for i, k := range par {
		if !nodes[k] {
			t.Fatalf("%s: parallel probe %d has key %v, which no node of the observed tree has", name, i, k)
		}
	}
	return len(par)
}

// firstDiff returns the index of the first entry where a and b differ, or
// -1 when they are equal.
func firstDiff(a, b []sched.Fingerprint) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
