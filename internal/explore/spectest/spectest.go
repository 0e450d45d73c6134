// Package spectest is the conformance suite of the spec registry: a battery
// of machine-checked soundness obligations every registered scenario must
// meet before the explorer's scaling machinery (parallel sharding,
// partial-order reduction, state-fingerprint dedup) may be trusted on it.
// Adding a scenario to the repository is one file plus spec.Register — this
// suite, run over spec.All() by `make spec-conformance` (and the ordinary
// test run), enforces the checker/fingerprint contract that previously only
// review could.
//
// Per spec, on a bounded grid (the declared defaults, swept over crash
// budgets):
//
//   - declaration hygiene: doc line present, defaults resolve, the engine
//     params (crashes/steps) are declared;
//   - capability honesty: SupportsDedup ⇔ sessions carry a Fingerprint, and
//     dedup requests against a fingerprint-less spec fail with
//     explore.ErrNoFingerprint both at spec.Config and engine level;
//   - replay + checker determinism: two sequential explorations visit
//     identical trees (runs, pruned, depth, verdict);
//   - sequential/parallel equality: the sharded walk visits the identical
//     state space (without dedup);
//   - batched-grant equivalence: the batching transport (Decision.Plan,
//     Decision.Sprint, the prefix-plan cache) is observationally invisible —
//     runs, pruned counts, depth, outcome sets and dedup store stats are
//     byte-identical with explore.Config.NoBatch set;
//   - fingerprint determinism: two dedup explorations visit identical state
//     graphs (runs and store stats);
//   - outcome-set preservation: the set of checker-observable final states
//     (per-process outcomes + the harness fingerprint digest at the leaf) is
//     identical with dedup on and off, with pruning on and off, with both
//     composed, and with dedup on a 16-slot store that evicts — dedup may
//     only cut redundant work, evictions only cost reduction, pruning may
//     only drop commuting-order duplicates;
//   - sampler conformance: every built-in sampling strategy draws
//     byte-identical run scripts under a fixed seed, and — on exhaustible
//     cells — every sampled run's outcome is contained in the exhaustive
//     outcome set (sampling may only re-visit behaviors the tree holds,
//     never invent new ones);
//   - symmetry soundness (symmetry.go): specs declaring SupportsSymmetry
//     preserve the orbit-canonical outcome set with symmetry reduction on
//     and off, composed with pruning, and their checkers are invariant
//     under explicit process permutations of sampled run scripts.
package spectest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
	"mpcn/internal/sched"
)

// Options bound a conformance run.
type Options struct {
	// MaxRuns caps every exploration (0 = 100000). Cells the cap truncates
	// degrade to the determinism checks: outcome-set comparisons need
	// exhaustion.
	MaxRuns int
	// Crashes lists the crash budgets swept (nil = {0, 1}).
	Crashes []int
	// Params overrides spec defaults for the conformance cells (e.g. a step
	// budget for scenarios whose runs would otherwise walk to the engine
	// default).
	Params spec.Params
	// Workers sets the parallel pool probed by the sequential/parallel
	// equality check (0 = 2).
	Workers int
	// Samples is the per-strategy budget of the sampler obligations
	// (0 = 200; < 0 skips them).
	Samples int
	// SampleSeed seeds the sampler obligations (0 = 7).
	SampleSeed int64
}

func (o Options) withDefaults() Options {
	if o.MaxRuns <= 0 {
		o.MaxRuns = 100000
	}
	if o.Crashes == nil {
		o.Crashes = []int{0, 1}
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Samples == 0 {
		o.Samples = 200
	}
	if o.SampleSeed == 0 {
		o.SampleSeed = 7
	}
	return o
}

// Conformance runs the full suite against one registered spec.
func Conformance(t *testing.T, s spec.Spec, opt Options) {
	t.Helper()
	opt = opt.withDefaults()
	declaration(t, s)
	for _, crashes := range opt.Crashes {
		crashes := crashes
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
			cell(t, s, resolved, opt)
		})
	}
}

// declaration checks the self-description every consumer relies on.
func declaration(t *testing.T, s spec.Spec) {
	t.Helper()
	if s.Name() == "" {
		t.Fatal("spec without a name")
	}
	if s.Doc() == "" {
		t.Errorf("spec %q: empty doc line", s.Name())
	}
	seen := make(map[string]bool)
	for _, d := range s.Params() {
		if seen[d.Name] {
			t.Errorf("spec %q: parameter %q declared twice", s.Name(), d.Name)
		}
		seen[d.Name] = true
		if d.Default < d.Min || d.Default > d.Max {
			t.Errorf("spec %q: param %q default %d outside %s", s.Name(), d.Name, d.Default, d.Range())
		}
	}
	for _, want := range []string{spec.ParamCrashes, spec.ParamSteps} {
		if !seen[want] {
			t.Errorf("spec %q: engine param %q not declared", s.Name(), want)
		}
	}
	if sm := s.Sampling(); sm.Budget < 0 || sm.Depth < 0 {
		t.Errorf("spec %q: negative sampling declaration %+v", s.Name(), sm)
	}
	if _, err := spec.Resolve(s, nil); err != nil {
		t.Errorf("spec %q: defaults do not resolve: %v", s.Name(), err)
	}
}

// cell runs the dynamic obligations on one resolved configuration.
func cell(t *testing.T, s spec.Spec, p spec.Params, opt Options) {
	t.Helper()
	base, err := spec.Config(s, p, explore.Config{MaxRuns: opt.MaxRuns, Workers: opt.Workers})
	if err != nil {
		t.Fatalf("Config: %v", err)
	}

	// Capability honesty: the flag and the session's Fingerprint must agree,
	// and a dedup request against a fingerprint-less spec must fail loudly at
	// both layers, tagged with the spec's name at the spec layer.
	if hasFP := s.New(p).Fingerprint != nil; hasFP != s.SupportsDedup() {
		t.Fatalf("spec %q: SupportsDedup=%v but session Fingerprint present=%v",
			s.Name(), s.SupportsDedup(), hasFP)
	}
	if !s.SupportsDedup() {
		dedupCfg := base
		dedupCfg.Dedup = true
		if _, err := spec.Config(s, p, dedupCfg); !errors.Is(err, explore.ErrNoFingerprint) ||
			!strings.Contains(err.Error(), s.Name()) {
			t.Errorf("spec.Config dedup on %q: err = %v, want ErrNoFingerprint tagged with the name", s.Name(), err)
		}
		if _, err := explore.ExploreSession(s.New(p), dedupCfg); !errors.Is(err, explore.ErrNoFingerprint) {
			t.Errorf("engine dedup on %q: err = %v, want ErrNoFingerprint", s.Name(), err)
		}
	}

	// Same contract for the symmetry capability (symmetry.go): flag/session
	// agreement plus typed rejections of every invalid request shape.
	symmetryCapability(t, s, p, base)

	// Replay + checker determinism: the sequential walk is a deterministic
	// function of (spec, params, config).
	a := mustExplore(t, s, p, base, false)
	b := mustExplore(t, s, p, base, false)
	if a.Runs != b.Runs || a.Pruned != b.Pruned || a.MaxDepth != b.MaxDepth || a.Exhausted != b.Exhausted {
		t.Fatalf("sequential determinism: %+v vs %+v", a, b)
	}

	// Sequential/parallel equality (the shared MaxRuns budget makes the
	// counts comparable even when the cap truncates).
	par := mustExplore(t, s, p, base, true)
	if par.Runs != a.Runs || par.Pruned != a.Pruned || par.Exhausted != a.Exhausted {
		t.Fatalf("parallel walk diverged: par={runs:%d pruned:%d exhausted:%v} seq={runs:%d pruned:%d exhausted:%v}",
			par.Runs, par.Pruned, par.Exhausted, a.Runs, a.Pruned, a.Exhausted)
	}

	// Batched-grant conformance: the batching transport (Decision.Plan/Sprint
	// and the prefix-plan cache) must be observationally invisible — the walk
	// with batching disabled visits the identical tree.
	nb := base
	nb.NoBatch = true
	ub := mustExplore(t, s, p, nb, false)
	if ub.Runs != a.Runs || ub.Pruned != a.Pruned || ub.MaxDepth != a.MaxDepth || ub.Exhausted != a.Exhausted {
		t.Fatalf("batching changed the walk: batched={runs:%d pruned:%d depth:%d} unbatched={runs:%d pruned:%d depth:%d}",
			a.Runs, a.Pruned, a.MaxDepth, ub.Runs, ub.Pruned, ub.MaxDepth)
	}

	// Sampler determinism needs no exhaustion: a fixed seed must draw
	// byte-identical scripts on every built-in strategy.
	if opt.Samples > 0 {
		samplerDeterminism(t, s, p, opt)
	}

	if !a.Exhausted {
		t.Logf("spec %q %v: bounded at %d runs; outcome-set obligations skipped", s.Name(), p, opt.MaxRuns)
		return
	}

	want, _ := coverage(t, s, p, base)

	// Sampler soundness: on an exhausted cell, every sampled run's outcome
	// signature is contained in the exhaustive outcome set — the structural
	// guarantee that sampling walks the same decision tree.
	if opt.Samples > 0 {
		samplerSoundness(t, s, p, opt, want)
	}

	pruneCfg := base
	pruneCfg.Prune = true
	pruned, st := coverage(t, s, p, pruneCfg) // reused as the prune+dedup baseline below
	if st.Runs > a.Runs {
		t.Errorf("prune explored MORE runs: %d vs %d", st.Runs, a.Runs)
	}
	compareCoverage(t, "prune", want, pruned)

	// Batched-grant outcome preservation: the checker-observable final-state
	// set must be byte-identical with batching on and off.
	{
		nb := base
		nb.NoBatch = true
		got, _ := coverage(t, s, p, nb)
		compareCoverage(t, "nobatch", want, got)
	}

	if s.SupportsDedup() {
		dedupCfg := base
		dedupCfg.Dedup = true
		got, st := coverage(t, s, p, dedupCfg)
		if st.Runs > a.Runs {
			t.Errorf("dedup explored MORE runs than the tree walk: %d vs %d", st.Runs, a.Runs)
		}
		compareCoverage(t, "dedup", want, got)

		// Evictions cost reduction, never coverage: squeezed to one shard of
		// 16 slots, the store evicts on every cell with more than 16 states,
		// and the outcome set must not move.
		evictCfg := dedupCfg
		evictCfg.DedupMem = 1
		evicted, est := coverage(t, s, p, evictCfg)
		compareCoverage(t, "dedup under eviction", want, evicted)
		if est.Dedup.States > 16 && est.Dedup.Evictions == 0 {
			t.Errorf("a 16-slot store held %d states without evicting: %+v", est.Dedup.States, est.Dedup)
		}

		// Fingerprint determinism: two dedup walks visit the identical state
		// graph — same runs, same distinct-state count, same hits.
		d1 := mustExplore(t, s, p, dedupCfg, false)
		d2 := mustExplore(t, s, p, dedupCfg, false)
		if d1.Runs != d2.Runs || d1.Dedup.States != d2.Dedup.States || d1.Dedup.Hits != d2.Dedup.Hits {
			t.Errorf("fingerprint determinism: {runs:%d states:%d hits:%d} vs {runs:%d states:%d hits:%d}",
				d1.Runs, d1.Dedup.States, d1.Dedup.Hits, d2.Runs, d2.Dedup.States, d2.Dedup.Hits)
		}

		// Batching must not move a single store interaction: the dedup walk
		// with batching disabled visits the same state graph — same runs,
		// same visited counts, same hits and cuts.
		nbDedup := dedupCfg
		nbDedup.NoBatch = true
		d3 := mustExplore(t, s, p, nbDedup, false)
		if d3.Runs != d1.Runs || d3.Dedup.States != d1.Dedup.States || d3.Dedup.Hits != d1.Dedup.Hits ||
			d3.Dedup.CutAlternatives != d1.Dedup.CutAlternatives {
			t.Errorf("batching changed the dedup walk: batched={runs:%d states:%d hits:%d cut:%d} unbatched={runs:%d states:%d hits:%d cut:%d}",
				d1.Runs, d1.Dedup.States, d1.Dedup.Hits, d1.Dedup.CutAlternatives,
				d3.Runs, d3.Dedup.States, d3.Dedup.Hits, d3.Dedup.CutAlternatives)
		}

		bothCfg := base
		bothCfg.Prune = true
		bothCfg.Dedup = true
		gotP, _ := coverage(t, s, p, bothCfg)
		compareCoverage(t, "prune+dedup", pruned, gotP)
	}

	if s.SupportsSymmetry() {
		symmetryCell(t, s, p, base, opt)
	}
}

func mustExplore(t *testing.T, s spec.Spec, p spec.Params, cfg explore.Config, parallel bool) explore.Stats {
	t.Helper()
	var st explore.Stats
	var err error
	if parallel {
		st, err = explore.ExploreParallel(spec.Factory(s, p), cfg)
	} else {
		st, err = explore.ExploreSession(s.New(p), cfg)
	}
	if err != nil {
		t.Fatalf("spec %q %v: %v", s.Name(), p, err)
	}
	return st
}

// coverage explores one configuration sequentially with the session's Check
// wrapped so every run records a canonical signature of its
// checker-observable final state: the per-process outcomes (status, decided
// flag, value), sorted for interleaving-insensitivity, plus the harness
// fingerprint digest at the leaf when the spec carries one.
func coverage(t *testing.T, s spec.Spec, p spec.Params, cfg explore.Config) (map[string]bool, explore.Stats) {
	t.Helper()
	sess := s.New(p)
	inner := sess.Check
	leafFP := sess.Fingerprint
	cover := make(map[string]bool)
	sess.Check = func(res *sched.Result) error {
		if err := inner(res); err != nil {
			return err
		}
		cover[leafSignature(res, leafFP)] = true
		return nil
	}
	st, err := explore.ExploreSession(sess, cfg)
	if err != nil || !st.Exhausted {
		t.Fatalf("spec %q %v cfg{prune:%v dedup:%v}: err=%v exhausted=%v",
			s.Name(), p, cfg.Prune, cfg.Dedup, err, st.Exhausted)
	}
	return cover, st
}

// leafSignature canonicalizes one run's checker-observable final state: the
// per-process outcomes, sorted for interleaving-insensitivity, plus the
// harness fingerprint digest at the leaf when the spec carries one.
func leafSignature(res *sched.Result, leafFP func(*sched.FP)) string {
	sig := make([]string, 0, len(res.Outcomes))
	for _, o := range res.Outcomes {
		sig = append(sig, fmt.Sprintf("%v/%v/%v", o.Status, o.Decided, o.Value))
	}
	sort.Strings(sig)
	key := strings.Join(sig, ";")
	if leafFP != nil {
		var h sched.FP
		leafFP(&h)
		d := h.Sum()
		key = fmt.Sprintf("%s#%016x%016x", key, d.Hi, d.Lo)
	}
	return key
}

// sampleConfig derives the cell's sampling configuration: the engine params
// of the resolved assignment plus the spec's declared PCT depth, so the
// sampled and exhaustive runs see identical crash and step budgets, drawn
// by the sequential engine.
func sampleConfig(s spec.Spec, p spec.Params, opt Options) sample.Config {
	return sample.Config{
		Samples:    opt.Samples,
		Seed:       opt.SampleSeed,
		MaxCrashes: p[spec.ParamCrashes],
		MaxSteps:   p[spec.ParamSteps],
		Depth:      s.Sampling().Depth,
		Workers:    1,
	}
}

// sampleSession samples one harness with the sequential engine.
func sampleSession(sess explore.Session, strategy string, cfg sample.Config) (sample.Stats, error) {
	cfg.Workers = 1
	return sample.RunContext(context.Background(), func() explore.Session { return sess }, strategy, cfg)
}

// samplerDeterminism checks the seeded-reproducibility contract per
// strategy: two sampling passes under one seed draw byte-identical scripts,
// sample for sample — the second on a 16-slot coverage store that evicts,
// since coverage is a diagnostic that must never steer a sample.
func samplerDeterminism(t *testing.T, s spec.Spec, p spec.Params, opt Options) {
	t.Helper()
	for _, strategy := range sample.Strategies() {
		cfg := sampleConfig(s, p, opt)
		first := make([]string, cfg.Samples)
		cfg.OnSample = func(i int, script []string) { first[i] = strings.Join(script, "\n") }
		if st, err := sampleSession(s.New(p), strategy, cfg); err != nil {
			t.Fatalf("sampling %q/%s: %v", s.Name(), strategy, err)
		} else if st.Samples != cfg.Samples {
			t.Fatalf("sampling %q/%s: %d samples, want %d", s.Name(), strategy, st.Samples, cfg.Samples)
		}
		diverged := false
		cfg.OnSample = func(i int, script []string) {
			if got := strings.Join(script, "\n"); got != first[i] && !diverged {
				diverged = true
				t.Errorf("sampling %q/%s: sample %d diverged under fixed seed %d:\n%s\nvs\n%s",
					s.Name(), strategy, i, cfg.Seed, got, first[i])
			}
		}
		cfg.Coverage, cfg.CoverageMem = true, 1
		st, err := sampleSession(s.New(p), strategy, cfg)
		if err != nil {
			t.Fatalf("sampling %q/%s (replay pass under eviction): %v", s.Name(), strategy, err)
		}
		if st.Distinct > 16 && st.Coverage.Evictions == 0 {
			t.Errorf("sampling %q/%s: a 16-slot coverage store held %d states without evicting: %+v",
				s.Name(), strategy, st.Distinct, st.Coverage)
		}
	}
}

// samplerSoundness checks outcome containment per strategy: a sampled run
// may only land on leaf signatures the exhaustive walk produced.
func samplerSoundness(t *testing.T, s spec.Spec, p spec.Params, opt Options, want map[string]bool) {
	t.Helper()
	for _, strategy := range sample.Strategies() {
		sess := s.New(p)
		inner := sess.Check
		leafFP := sess.Fingerprint
		sess.Check = func(res *sched.Result) error {
			if err := inner(res); err != nil {
				return err
			}
			if sig := leafSignature(res, leafFP); !want[sig] {
				return fmt.Errorf("sampled outcome %s is outside the exhaustive outcome set", sig)
			}
			return nil
		}
		if _, err := sampleSession(sess, strategy, sampleConfig(s, p, opt)); err != nil {
			t.Errorf("sampling soundness %q/%s: %v", s.Name(), strategy, err)
		}
	}
}

func compareCoverage(t *testing.T, mode string, want, got map[string]bool) {
	t.Helper()
	lost, invented := 0, 0
	for k := range want {
		if !got[k] {
			lost++
			if lost <= 3 {
				t.Errorf("%s lost outcome %s", mode, k)
			}
		}
	}
	for k := range got {
		if !want[k] {
			invented++
			if invented <= 3 {
				t.Errorf("%s invented outcome %s", mode, k)
			}
		}
	}
	if lost+invented > 0 {
		t.Errorf("%s: outcome sets differ (%d outcomes without, %d with; %d lost, %d invented)",
			mode, len(want), len(got), lost, invented)
	}
}
