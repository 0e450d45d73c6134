package spectest

// The memo battery: objects and harness logs cache their digests between
// writes (sched.Memo, the sessions' incremental log digests), so a harness
// Fingerprint at a decision boundary is only as fresh as every invalidation
// on the way there. The battery records the harness digest at every boundary
// the engines fingerprint — sampled runs with coverage, where every decision
// is a boundary, and a sequential dedup walk, where replays re-enter the tree
// after a reset with warm caches — and compares each with the digest a
// fresh session from the factory computes at the same boundary, after a
// strict replay of the same prefix and with no fingerprint taken before it.

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
	"mpcn/internal/sched"
)

// memoSamples is the per-strategy sample budget of the battery, and
// memoWalkRuns the number of dedup-walk runs it checks: every run of a walk
// up to that long, else the first half of them and the rest spread over the
// whole walk.
const (
	memoSamples  = 32
	memoWalkRuns = 512
)

// MemoDigests runs the memo battery on one spec over the crash budgets of
// opt, at the spec's defaults overridden by opt.Params. Specs without a
// Fingerprint have no digest to check and pass trivially.
func MemoDigests(t *testing.T, s spec.Spec, opt Options) {
	t.Helper()
	if !s.SupportsDedup() {
		return
	}
	opt = opt.withDefaults()
	for _, crashes := range opt.Crashes {
		t.Run(fmt.Sprintf("crashes=%d", crashes), func(t *testing.T) {
			p := opt.Params.Clone()
			if p == nil {
				p = spec.Params{}
			}
			p[spec.ParamCrashes] = crashes
			resolved, err := spec.Resolve(s, p)
			if err != nil {
				t.Fatalf("Resolve: %v", err)
			}
			memoSampled(t, s, resolved, opt)
			memoWalk(t, s, resolved, opt)
		})
	}
}

// boundary is one harness fingerprint an engine took: the run grants made so
// far (a process's start included), the digest of the engine's call, and the digest of a second call at
// the same boundary, which a memo answers from its cache.
type boundary struct {
	steps      int
	first, hit sched.Fingerprint
}

// recorder wraps a session so that each of its Fingerprint calls records a
// boundary of the current run.
type recorder struct {
	envs  []*sched.Env
	calls []boundary
}

// record returns sess with Make and Fingerprint wrapped to record into r.
// The wrapped Fingerprint folds the harness digest three times, into two
// plain FPs of its own and then into the engine's, so the engine's walk sees
// the same state digests as an unwrapped one.
func (r *recorder) record(sess explore.Session) explore.Session {
	mk, fp := sess.Make, sess.Fingerprint
	sess.Make = func() []sched.Proc {
		r.calls = r.calls[:0]
		bodies := mk()
		r.envs = slices.Grow(r.envs[:0], len(bodies))[:len(bodies)]
		clear(r.envs)
		wrapped := make([]sched.Proc, len(bodies))
		for i, body := range bodies {
			wrapped[i] = func(e *sched.Env) {
				r.envs[i] = e
				body(e)
			}
		}
		return wrapped
	}
	sess.Fingerprint = func(h *sched.FP) {
		var first, hit sched.FP
		fp(&first)
		fp(&hit)
		fp(h)
		steps := 0
		for _, e := range r.envs {
			if e != nil { // started: its start grant plus its steps
				steps += 1 + e.StepCount()
			}
		}
		r.calls = append(r.calls, boundary{steps: steps, first: first.Sum(), hit: hit.Sum()})
	}
	return sess
}

// memoSampled checks every boundary of sampled runs with coverage: the
// sampler fingerprints before every decision, so the run's k-th call is the
// boundary after the script's first k decisions.
func memoSampled(t *testing.T, s spec.Spec, p spec.Params, opt Options) {
	t.Helper()
	for _, strategy := range sample.Strategies() {
		var r recorder
		sess := r.record(s.New(p))
		cfg := sampleConfig(s, p, opt)
		cfg.Samples, cfg.Coverage = memoSamples, true
		var failed error
		cfg.OnSample = func(i int, script []string) {
			if failed != nil {
				return
			}
			if len(r.calls) != len(script) {
				failed = fmt.Errorf("sample %d: %d fingerprints for %d decisions", i, len(r.calls), len(script))
				return
			}
			for k, b := range r.calls {
				if err := checkBoundary(s, p, script, k, b); err != nil {
					failed = fmt.Errorf("%s sample %d: %w", strategy, i, err)
					return
				}
			}
		}
		if _, err := sampleSession(sess, strategy, cfg); err != nil {
			t.Fatalf("sampling %q/%s: %v", s.Name(), strategy, err)
		}
		if failed != nil {
			t.Fatalf("spec %q %v: %v", s.Name(), p, failed)
		}
	}
}

// errStop ends a dedup walk at the run whose script the battery needs.
var errStop = errors.New("spectest: stop at the checked run")

// memoWalk checks the boundaries of a sequential dedup walk. The walk is
// deterministic, so it is run once to count its runs and once more up to
// each checked run, whose Check stops it with the run's script. A replay
// fingerprints only the nodes below its branch point and above its dedup
// cut, consecutive decisions of the script; the steps each call recorded
// place them on it.
func memoWalk(t *testing.T, s spec.Spec, p spec.Params, opt Options) {
	t.Helper()
	cfg, err := spec.Config(s, p, explore.Config{MaxRuns: opt.MaxRuns, Workers: 1, Dedup: true})
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	st := mustExplore(t, s, p, cfg, false)
	for _, run := range checkedRuns(st.Runs) {
		var r recorder
		sess := r.record(s.New(p))
		check, runs := sess.Check, 0
		sess.Check = func(res *sched.Result) error {
			if runs++; runs == run {
				return errStop
			}
			return check(res)
		}
		_, err := explore.ExploreSession(sess, cfg)
		var pe *explore.PropertyError
		if !errors.As(err, &pe) || !errors.Is(err, errStop) {
			t.Fatalf("spec %q %v: dedup walk to run %d: %v", s.Name(), p, run, err)
		}
		if err := checkRun(s, p, pe.Script, r.calls); err != nil {
			t.Fatalf("spec %q %v: dedup walk run %d: %v", s.Name(), p, run, err)
		}
	}
}

// checkedRuns returns the 1-based indices of the walk runs the battery
// checks: all of them up to memoWalkRuns, else the first memoWalkRuns/2 and
// as many more spread evenly up to the last.
func checkedRuns(total int) []int {
	var runs []int
	half := memoWalkRuns / 2
	for i := 1; i <= total && (i <= half || total <= memoWalkRuns); i++ {
		runs = append(runs, i)
	}
	if total > memoWalkRuns {
		for k := 1; k <= half; k++ {
			if i := total * k / half; i > half {
				runs = append(runs, i)
			}
		}
	}
	return runs
}

// checkRun places a walk run's calls on its script and checks each. The
// calls sit at consecutive decisions starting at some depth d, and a call
// at depth d+i recorded the run grants of the first d+i decisions. A crash
// grants none, so next to a crash more than one d may fit; every fitting
// placement must check out.
func checkRun(s spec.Spec, p spec.Params, script []string, calls []boundary) error {
	steps := make([]int, len(script)+1) // steps[k]: run grants among script[:k]
	for k, entry := range script {
		c, err := explore.ParseChoice(entry)
		if err != nil {
			return err
		}
		steps[k+1] = steps[k]
		if !c.Crash {
			steps[k+1]++
		}
	}
	placed := false
	for d := 0; d+len(calls) <= len(script); d++ {
		fits := true
		for i, b := range calls {
			if steps[d+i] != b.steps {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		placed = true
		for i, b := range calls {
			if err := checkBoundary(s, p, script, d+i, b); err != nil {
				return err
			}
		}
	}
	if !placed {
		return fmt.Errorf("%d fingerprints fit no run of consecutive decisions of %v (%v)", len(calls), script, calls)
	}
	return nil
}

// checkBoundary compares a recorded boundary with the digest a fresh session
// computes after strictly replaying script[:k].
func checkBoundary(s spec.Spec, p spec.Params, script []string, k int, b boundary) error {
	want, err := freshDigest(s.New(p), script, k, p[spec.ParamSteps])
	if err != nil {
		return err
	}
	if b.first != want || b.hit != want {
		return fmt.Errorf("after %d decisions of %v: memoized digest %x, again %x; fresh session %x",
			k, script, b.first, b.hit, want)
	}
	return nil
}

// freshDigest replays script strictly on sess and returns the harness digest
// at the boundary after its first k decisions, the only fingerprint taken.
func freshDigest(sess explore.Session, script []string, k, maxSteps int) (sched.Fingerprint, error) {
	if sess.Close != nil {
		defer sess.Close()
	}
	f := &prefixDigest{script: script, k: k, fp: sess.Fingerprint}
	bodies := sess.Make()
	if _, err := sched.Run(sched.Config{Adversary: f, MaxSteps: maxSteps, Observe: true}, bodies); err != nil {
		return sched.Fingerprint{}, err
	}
	if f.err == nil && !f.taken {
		f.err = fmt.Errorf("replay of %v ended before decision %d", script, k)
	}
	return f.got, f.err
}

// prefixDigest follows a script strictly, as explore.ReplayScript does, and
// fingerprints the harness once, before decision k.
type prefixDigest struct {
	script []string
	k, pos int
	fp     func(*sched.FP)
	got    sched.Fingerprint
	taken  bool
	err    error
}

// Next implements sched.Adversary.
func (f *prefixDigest) Next(v *sched.View) sched.Decision {
	if f.pos == f.k && !f.taken {
		var h sched.FP
		f.fp(&h)
		f.got, f.taken = h.Sum(), true
	}
	if f.err != nil || f.pos >= len(f.script) {
		if f.err == nil {
			f.err = fmt.Errorf("script %v exhausted but the run needs more", f.script)
		}
		return sched.Decision{}
	}
	c, err := explore.ParseChoice(f.script[f.pos])
	switch {
	case err != nil:
		f.err = err
	case !slices.Contains(v.Runnable, c.Proc) || v.Pending[c.Proc] != c.Label:
		f.err = fmt.Errorf("script step %d (%s) diverges from the replay", f.pos, f.script[f.pos])
	}
	f.pos++
	if f.err != nil {
		return sched.Decision{}
	}
	if c.Crash {
		return sched.CrashDecision(c.Proc)
	}
	return sched.RunDecision(c.Proc)
}
