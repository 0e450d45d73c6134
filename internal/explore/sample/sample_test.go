package sample_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
	"mpcn/internal/sched"

	// Register the built-in scenarios.
	_ "mpcn/internal/explore/sessions"
)

func mustSpec(t *testing.T, name string) spec.Spec {
	t.Helper()
	s, err := spec.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func session(t *testing.T, name string, p spec.Params) (spec.Spec, spec.Params, explore.Session) {
	t.Helper()
	s := mustSpec(t, name)
	resolved, err := spec.Resolve(s, p)
	if err != nil {
		t.Fatal(err)
	}
	return s, resolved, s.New(resolved)
}

// runSeq samples one harness with the sequential engine.
func runSeq(sess explore.Session, strategy string, cfg sample.Config) (sample.Stats, error) {
	cfg.Workers = 1
	return sample.RunContext(context.Background(), func() explore.Session { return sess }, strategy, cfg)
}

// collectScripts runs one sequential sampling pass and returns every drawn
// script, indexed by sample.
func collectScripts(t *testing.T, sess explore.Session, strategy string, cfg sample.Config) []string {
	t.Helper()
	scripts := make([]string, cfg.Samples)
	cfg.OnSample = func(i int, script []string) {
		scripts[i] = strings.Join(script, " ")
	}
	st, err := runSeq(sess, strategy, cfg)
	if err != nil {
		t.Fatalf("strategy %s: %v", strategy, err)
	}
	if st.Samples != cfg.Samples {
		t.Fatalf("strategy %s: %d samples completed, want %d", strategy, st.Samples, cfg.Samples)
	}
	return scripts
}

// TestSeedDeterminism: a fixed seed reproduces byte-identical run scripts on
// every strategy, and a different seed draws a different stream.
func TestSeedDeterminism(t *testing.T) {
	for _, strategy := range sample.Strategies() {
		strategy := strategy
		t.Run(strategy, func(t *testing.T) {
			_, p, sess := session(t, "commitadopt", spec.Params{spec.ParamCrashes: 1})
			cfg := sample.Config{Samples: 50, Seed: 42, MaxCrashes: p[spec.ParamCrashes]}
			a := collectScripts(t, sess, strategy, cfg)
			_, _, sess2 := session(t, "commitadopt", spec.Params{spec.ParamCrashes: 1})
			b := collectScripts(t, sess2, strategy, cfg)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("sample %d diverged under a fixed seed:\n  %s\n  %s", i, a[i], b[i])
				}
			}
			cfg.Seed = 43
			_, _, sess3 := session(t, "commitadopt", spec.Params{spec.ParamCrashes: 1})
			c := collectScripts(t, sess3, strategy, cfg)
			same := 0
			for i := range a {
				if a[i] == c[i] {
					same++
				}
			}
			if same == len(a) {
				t.Fatalf("50 samples identical across different seeds")
			}
		})
	}
}

// bgPCTGolden is the digest of TestBGPCTScriptsGolden's scripts. It was
// recorded before the BG simulator threads' shared steps were routed through
// the simulator coroutine, when BG still ran on a channel-based protocol.
const bgPCTGolden = "df8a4d90a5f967e7828129cbc803b373327a6986c6286b72b5d07a9768e6b94b"

// TestBGPCTScriptsGolden pins the fixed-seed PCT scripts of the bg spec,
// crashes included, byte for byte: the scheduler protocol BG runs on must
// not change a single sampled schedule.
func TestBGPCTScriptsGolden(t *testing.T) {
	s, p, sess := session(t, "bg", spec.Params{"n": 3, spec.ParamSteps: 400, spec.ParamCrashes: 1})
	scripts := collectScripts(t, sess, sample.StrategyPCT, sample.Config{
		Samples: 300, Seed: 5, MaxSteps: p[spec.ParamSteps], MaxCrashes: p[spec.ParamCrashes],
		Depth: s.Sampling().Depth,
	})
	h := sha256.New()
	crashed := 0
	for _, sc := range scripts {
		if strings.Contains(sc, "crash(") {
			crashed++
		}
		fmt.Fprintln(h, sc)
	}
	if crashed == 0 {
		t.Fatal("no sampled bg script crashes a simulator; the golden misses crash paths")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != bgPCTGolden {
		t.Fatalf("bg PCT scripts digest %s, golden %s", got, bgPCTGolden)
	}
}

// TestReplayReproducesSample: Replay(index) re-emits the exact script the
// stream drew at that index.
func TestReplayReproducesSample(t *testing.T) {
	_, p, sess := session(t, "safe", spec.Params{spec.ParamCrashes: 1})
	cfg := sample.Config{Samples: 20, Seed: 7, MaxCrashes: p[spec.ParamCrashes]}
	scripts := collectScripts(t, sess, sample.StrategyPCT, cfg)
	for _, i := range []int{0, 7, 19} {
		_, _, fresh := session(t, "safe", spec.Params{spec.ParamCrashes: 1})
		script, res, err := sample.Replay(fresh, sample.StrategyPCT, cfg, i)
		if err != nil {
			t.Fatalf("Replay(%d): %v", i, err)
		}
		if got := strings.Join(script, " "); got != scripts[i] {
			t.Fatalf("Replay(%d) script diverged:\n  %s\n  %s", i, got, scripts[i])
		}
		if res == nil || len(res.Outcomes) == 0 {
			t.Fatalf("Replay(%d): no result", i)
		}
	}
}

// exhaustiveOutcomes explores a spec's full tree and returns the canonical
// outcome-signature set (sorted per-process outcomes).
func exhaustiveOutcomes(t *testing.T, s spec.Spec, p spec.Params) map[string]bool {
	t.Helper()
	sess := s.New(p)
	inner := sess.Check
	out := make(map[string]bool)
	sess.Check = func(res *sched.Result) error {
		if err := inner(res); err != nil {
			return err
		}
		out[signature(res)] = true
		return nil
	}
	cfg, err := spec.Config(s, p, explore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := explore.ExploreSession(sess, cfg)
	if err != nil || !st.Exhausted {
		t.Fatalf("exhaustive baseline: err=%v exhausted=%v", err, st.Exhausted)
	}
	return out
}

func signature(res *sched.Result) string {
	sig := make([]string, 0, len(res.Outcomes))
	for _, o := range res.Outcomes {
		sig = append(sig, fmt.Sprintf("%v/%v/%v", o.Status, o.Decided, o.Value))
	}
	sort.Strings(sig)
	return strings.Join(sig, ";")
}

// TestSampledOutcomesWithinExhaustiveSet: on an exhaustible spec, every
// outcome any strategy samples is in the exhaustive outcome set — the
// structural soundness of sampling over the same alternative sets.
func TestSampledOutcomesWithinExhaustiveSet(t *testing.T) {
	s := mustSpec(t, "commitadopt")
	p, err := spec.Resolve(s, spec.Params{spec.ParamCrashes: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := exhaustiveOutcomes(t, s, p)
	// PCT runs the acceptance-grade 10k-sample budget; the other strategies
	// a lighter one (spectest re-checks all three on every registered spec).
	budget := map[string]int{sample.StrategyPCT: 10000}
	for _, strategy := range sample.Strategies() {
		strategy := strategy
		t.Run(strategy, func(t *testing.T) {
			samples := budget[strategy]
			if samples == 0 {
				samples = 1500
			}
			sess := s.New(p)
			inner := sess.Check
			sess.Check = func(res *sched.Result) error {
				if err := inner(res); err != nil {
					return err
				}
				if sig := signature(res); !want[sig] {
					return fmt.Errorf("sampled outcome %s not reachable exhaustively", sig)
				}
				return nil
			}
			st, err := runSeq(sess, strategy, sample.Config{
				Samples:    samples,
				Seed:       11,
				MaxCrashes: p[spec.ParamCrashes],
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Samples != samples {
				t.Fatalf("samples = %d", st.Samples)
			}
		})
	}
}

// TestViolationCarriesScriptAndIndex: a checker violation surfaces as the
// exhaustive engine's PropertyError (replay script included) wrapping a
// SampleError naming the reproducing (seed, index) pair — and Replay at that
// index re-finds the identical violation.
func TestViolationCarriesScriptAndIndex(t *testing.T) {
	mk := func() explore.Session {
		_, _, sess := session(t, "safe", spec.Params{spec.ParamCrashes: 1})
		inner := sess.Check
		sess.Check = func(res *sched.Result) error {
			if err := inner(res); err != nil {
				return err
			}
			if res.Crashes > 0 {
				return errors.New("synthetic: crashes forbidden")
			}
			return nil
		}
		return sess
	}
	cfg := sample.Config{Samples: 5000, Seed: 3, MaxCrashes: 1}
	_, err := runSeq(mk(), sample.StrategyWalk, cfg)
	if err == nil {
		t.Fatal("no violation found in 5000 crash-biased walks")
	}
	var pe *explore.PropertyError
	if !errors.As(err, &pe) || len(pe.Script) == 0 {
		t.Fatalf("violation is not a scripted PropertyError: %v", err)
	}
	var se *sample.SampleError
	if !errors.As(err, &se) || se.Strategy != sample.StrategyWalk || se.Seed != 3 {
		t.Fatalf("violation does not carry the reproducing SampleError: %v", err)
	}
	crashes := 0
	for _, step := range pe.Script {
		if strings.HasPrefix(step, "crash(") {
			crashes++
		}
	}
	if crashes == 0 {
		t.Fatalf("script has no crash step despite a crash-triggered violation: %v", pe.Script)
	}

	script, _, rerr := sample.Replay(mk(), sample.StrategyWalk, cfg, se.Sample)
	if rerr == nil {
		t.Fatal("Replay of the violating sample passed")
	}
	if strings.Join(script, " ") != strings.Join(pe.Script, " ") {
		t.Fatalf("Replay script diverged from the violation script:\n  %v\n  %v", script, pe.Script)
	}
}

// TestParallelSharedViolationSink: parallel workers share the violation
// sink — the pool stops on the first violation and reports a scripted,
// indexed error; throughput accounting covers only completed samples.
func TestParallelSharedViolationSink(t *testing.T) {
	newSession := func() explore.Session {
		s := mustSpec(t, "safe")
		p, _ := spec.Resolve(s, spec.Params{spec.ParamCrashes: 1})
		sess := s.New(p)
		inner := sess.Check
		sess.Check = func(res *sched.Result) error {
			if err := inner(res); err != nil {
				return err
			}
			if res.Crashes > 0 {
				return errors.New("synthetic: crashes forbidden")
			}
			return nil
		}
		return sess
	}
	st, err := sample.RunParallel(newSession, sample.StrategyWalk, sample.Config{
		Samples:    5000,
		Seed:       3,
		MaxCrashes: 1,
		Workers:    4,
	})
	if err == nil {
		t.Fatal("no violation surfaced from the pool")
	}
	var se *sample.SampleError
	if !errors.As(err, &se) {
		t.Fatalf("pool error lacks the SampleError: %v", err)
	}
	if st.Samples <= 0 || st.Samples > 5000 {
		t.Fatalf("samples = %d", st.Samples)
	}
	if len(st.Workers) == 0 {
		t.Fatal("no per-worker stats")
	}
}

// TestParallelMatchesSequentialSampleSet: without a violation, the parallel
// pool draws exactly the sequential engine's sample set (every index, same
// scripts) — only the drawing order differs.
func TestParallelMatchesSequentialSampleSet(t *testing.T) {
	s := mustSpec(t, "registers")
	p, err := spec.Resolve(s, spec.Params{spec.ParamCrashes: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sample.Config{Samples: 200, Seed: 9, MaxCrashes: 1}
	seq := collectScripts(t, s.New(p), sample.StrategyPCT, cfg)

	par := make([]string, cfg.Samples)
	var mu sync.Mutex
	pcfg := cfg
	pcfg.Workers = 4
	pcfg.OnSample = func(i int, script []string) {
		mu.Lock()
		par[i] = strings.Join(script, " ")
		mu.Unlock()
	}
	st, err := sample.RunParallel(func() explore.Session { return s.New(p) }, sample.StrategyPCT, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != cfg.Samples {
		t.Fatalf("parallel samples = %d, want %d", st.Samples, cfg.Samples)
	}
	for i := range seq {
		if par[i] != seq[i] {
			t.Fatalf("sample %d differs between pool and sequential engine:\n  %s\n  %s", i, par[i], seq[i])
		}
	}
}

// TestCoverageEstimator: the distinct-state estimator finds more than one
// state, never exceeds the decision-node count, grows a monotone series, and
// is deterministic under a fixed seed.
func TestCoverageEstimator(t *testing.T) {
	run := func() sample.Stats {
		_, p, sess := session(t, "registers", nil)
		st, err := runSeq(sess, sample.StrategyWalk, sample.Config{
			Samples:    400,
			Seed:       5,
			MaxCrashes: p[spec.ParamCrashes],
			Coverage:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a := run()
	if a.Distinct < 2 {
		t.Fatalf("distinct states = %d", a.Distinct)
	}
	if a.Coverage.Lookups < a.Distinct {
		t.Fatalf("lookups %d < states %d", a.Coverage.Lookups, a.Distinct)
	}
	if len(a.Series) < 4 {
		t.Fatalf("series has %d checkpoints: %+v", len(a.Series), a.Series)
	}
	for i := 1; i < len(a.Series); i++ {
		if a.Series[i].States < a.Series[i-1].States || a.Series[i].Samples <= a.Series[i-1].Samples {
			t.Fatalf("series not monotone: %+v", a.Series)
		}
	}
	b := run()
	if a.Distinct != b.Distinct {
		t.Fatalf("coverage estimate not deterministic: %d vs %d", a.Distinct, b.Distinct)
	}
}

// TestCoverageWithoutFingerprint: the estimator runs on fingerprint-less
// specs (BG) over the sched-level digest alone, with bounded store memory.
func TestCoverageWithoutFingerprint(t *testing.T) {
	s := mustSpec(t, "bg")
	p, err := spec.Resolve(s, spec.Params{spec.ParamSteps: 300})
	if err != nil {
		t.Fatal(err)
	}
	sess := s.New(p)
	if sess.Fingerprint != nil {
		t.Fatal("test premise broken: bg now has a fingerprint")
	}
	st, err := runSeq(sess, sample.StrategyPCT, sample.Config{
		Samples:     60,
		Seed:        1,
		MaxSteps:    300,
		Depth:       8,
		Coverage:    true,
		CoverageMem: 1 << 16, // tiny store: eviction pressure must stay safe
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 60 || st.Distinct == 0 {
		t.Fatalf("samples=%d distinct=%d", st.Samples, st.Distinct)
	}
	if st.Coverage.Capacity > (1<<16)/8 {
		t.Fatalf("store capacity %d ignores the memory bound", st.Coverage.Capacity)
	}
}

// TestPCTBoundSurfaced: a pct run reports the 1/(n*k^(d-1)) bound with k =
// the step range the change points were placed over (MaxSteps), never the
// smaller observed depth — the bound must not overstate the guarantee.
func TestPCTBoundSurfaced(t *testing.T) {
	_, p, sess := session(t, "commitadopt", nil)
	const steps = 64
	st, err := runSeq(sess, sample.StrategyPCT, sample.Config{
		Samples:    100,
		Seed:       2,
		MaxCrashes: p[spec.ParamCrashes],
		MaxSteps:   steps,
		Depth:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.PCTBound <= 0 || st.PCTBound > 1 {
		t.Fatalf("PCTBound = %v", st.PCTBound)
	}
	if st.MaxDepth >= steps {
		t.Fatalf("test premise broken: observed depth %d >= placement range %d", st.MaxDepth, steps)
	}
	want := 1.0 / (2 * float64(steps) * float64(steps))
	if st.PCTBound != want {
		t.Fatalf("PCTBound = %v, want 1/(n*k^2) = %v (k=%d)", st.PCTBound, want, steps)
	}
	if _, err := runSeq(sess, sample.StrategyWalk, sample.Config{Samples: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestConfigAndStrategyValidation: unusable configs and unknown strategies
// fail before sampling starts.
func TestConfigAndStrategyValidation(t *testing.T) {
	_, _, sess := session(t, "safe", nil)
	if _, err := runSeq(sess, sample.StrategyWalk, sample.Config{}); err == nil {
		t.Fatal("zero sample budget accepted")
	}
	if _, err := runSeq(sess, "annealing", sample.Config{Samples: 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("unknown strategy: %v", err)
	}
	if _, err := sample.RunParallel(func() explore.Session { _, _, s := session(t, "safe", nil); return s },
		"annealing", sample.Config{Samples: 1}); err == nil {
		t.Fatal("unknown strategy accepted by the pool")
	}
	if _, _, err := sample.Replay(sess, sample.StrategyWalk, sample.Config{Samples: 1}, -1); err == nil {
		t.Fatal("negative replay index accepted")
	}
	if _, err := sample.New("pct", 0); err != nil {
		t.Fatal(err)
	}
}

// TestBGSamplingBounded: the flagship unreachable-by-exhaustion scenario
// runs under sampling with a bounded step budget and finishes its budget.
func TestBGSamplingBounded(t *testing.T) {
	s := mustSpec(t, "bg")
	if s.Sampling().Budget <= 0 || s.Sampling().Depth <= 0 {
		t.Fatalf("bg must declare sampling budgets, got %+v", s.Sampling())
	}
	p, err := spec.Resolve(s, spec.Params{spec.ParamSteps: 400, spec.ParamCrashes: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sample.RunParallel(func() explore.Session { return s.New(p) }, sample.StrategySwarm, sample.Config{
		Samples:    80,
		Seed:       17,
		MaxSteps:   400,
		MaxCrashes: 1,
		Workers:    4,
		Coverage:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 80 {
		t.Fatalf("samples = %d", st.Samples)
	}
	if st.MaxDepth == 0 || st.Distinct == 0 {
		t.Fatalf("depth=%d distinct=%d", st.MaxDepth, st.Distinct)
	}
}
