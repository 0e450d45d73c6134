package spectest_test

import (
	"fmt"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
	"mpcn/internal/explore/spectest"
	"mpcn/internal/sched"

	// Register every built-in scenario: the suite runs against spec.All().
	_ "mpcn/internal/explore/sessions"
)

// options returns the per-spec conformance bounds. Everything runs with the
// defaults except specs that declare their tree uncoverable (spec.Unbounded
// — the BG simulation): those run as bounded smokes with a small step
// budget (the determinism obligations still apply; outcome-set equality
// needs exhaustion).
func options(s spec.Spec) spectest.Options {
	if spec.Unbounded(s) {
		return spectest.Options{
			MaxRuns: 300,
			Crashes: []int{0},
			Params:  spec.Params{spec.ParamSteps: 400},
		}
	}
	return spectest.Options{}
}

// TestConformanceAllSpecs runs the conformance suite over every registered
// spec — the gate that makes a new scenario one file plus spec.Register.
func TestConformanceAllSpecs(t *testing.T) {
	all := spec.All()
	if len(all) < 17 {
		t.Fatalf("only %d registered specs; the migrated harnesses, the object scenarios, sb and the corpus specs (mlset, renaming, detector, hierarchy, universal) should all be present", len(all))
	}
	for _, s := range all {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			spectest.Conformance(t, s, options(s))
		})
	}
}

// TestSymmetryVerdictPermutationInvariance is the cross-spec witness behind
// the Symmetry capability declarations: for every registered spec declaring
// SupportsSymmetry, checker verdicts are invariant under renaming the
// processes of a sampled schedule. A spec whose checker secretly privileges
// a process identity (e.g. "process 0 must win") fails here before its
// declaration can mislead the reduction.
func TestSymmetryVerdictPermutationInvariance(t *testing.T) {
	symmetric := 0
	for _, s := range spec.All() {
		if !s.SupportsSymmetry() {
			continue
		}
		symmetric++
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			p, err := spec.Resolve(s, nil)
			if err != nil {
				t.Fatalf("Resolve: %v", err)
			}
			n := 0
			var scripts [][]string
			cfg := sample.Config{
				Samples:    20,
				Seed:       11,
				MaxCrashes: 1,
				MaxSteps:   p[spec.ParamSteps],
				Depth:      s.Sampling().Depth,
				OnSample: func(i int, script []string) {
					scripts = append(scripts, append([]string(nil), script...))
				},
			}
			if _, err := sample.Run(s.New(p), sample.StrategyWalk, cfg); err != nil {
				t.Fatalf("sampling: %v", err)
			}
			sess := s.New(p)
			for si, script := range scripts {
				res, err := spectest.ReplayScript(sess, script, p[spec.ParamSteps])
				if err != nil {
					t.Fatalf("raw replay of sample %d: %v", si, err)
				}
				n = len(res.Outcomes)
				raw := fmt.Sprint(sess.Check(res))
				// A full rotation of the process identities.
				pi := make([]sched.ProcID, n)
				for i := range pi {
					pi[i] = sched.ProcID((i + 1) % n)
				}
				permuted, err := spectest.PermuteScript(script, pi)
				if err != nil {
					t.Fatalf("permuting sample %d: %v", si, err)
				}
				pres, err := spectest.ReplayScript(sess, permuted, p[spec.ParamSteps])
				if err != nil {
					t.Fatalf("permuted replay of sample %d: %v\nraw:      %v\npermuted: %v", si, err, script, permuted)
				}
				if got := fmt.Sprint(sess.Check(pres)); got != raw {
					t.Errorf("verdict changed under permutation on sample %d: %q vs %q", si, raw, got)
				}
			}
		})
	}
	if symmetric < 3 {
		t.Fatalf("only %d symmetry-declaring specs; commitadopt, registers and testandset should be present", symmetric)
	}
}

// dedupGateMaxRuns bounds the tree walks of TestDedupReductionGate: cells
// whose tree does not exhaust within it have no reduction ratio to measure.
const dedupGateMaxRuns = 20000

// TestDedupReductionGate is the reduction witness of state dedup. Its cells
// are every dedup-capable spec at its defaults with crash budgets 0 and 1,
// plus the registers writers at n=2 under the regular backend, whose
// three-step writes put weak-backend state into the fingerprints. On every
// cell whose tree exhausts within dedupGateMaxRuns, the sequential dedup
// walk replays no more runs than the tree walk, and the best cell replays
// at most half as many. Both walks are sequential, so every count here is
// deterministic.
func TestDedupReductionGate(t *testing.T) {
	type cell struct {
		s spec.Spec
		p spec.Params
	}
	var cells []cell
	for _, s := range spec.All() {
		if !s.SupportsDedup() {
			continue
		}
		for _, crashes := range []int{0, 1} {
			p, err := spec.Resolve(s, spec.Params{spec.ParamCrashes: crashes})
			if err != nil {
				t.Fatalf("Resolve(%s): %v", s.Name(), err)
			}
			cells = append(cells, cell{s, p})
		}
	}
	weak := mustLookup(t, "registers")
	p, err := spectest.BackendParams(weak, "regular", spec.Params{"n": 2, spec.ParamCrashes: 0})
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, cell{weak, p})

	best, bestCell, measured := 0.0, "", 0
	for _, c := range cells {
		name := c.s.Name() + " at " + c.p.Text(c.s)
		cfg, err := spec.Config(c.s, c.p, explore.Config{MaxRuns: dedupGateMaxRuns})
		if err != nil {
			t.Fatalf("Config(%s): %v", name, err)
		}
		tree, err := explore.ExploreSession(c.s.New(c.p), cfg)
		if err != nil {
			t.Fatalf("tree walk of %s: %v", name, err)
		}
		if !tree.Exhausted {
			continue
		}
		cfg.Dedup = true
		dedup, err := explore.ExploreSession(c.s.New(c.p), cfg)
		if err != nil || !dedup.Exhausted {
			t.Fatalf("dedup walk of %s: err=%v exhausted=%v", name, err, dedup.Exhausted)
		}
		if dedup.Runs > tree.Runs {
			t.Errorf("%s: dedup explored MORE runs than the tree walk: %d vs %d", name, dedup.Runs, tree.Runs)
		}
		measured++
		if x := float64(tree.Runs) / float64(dedup.Runs); x > best {
			best, bestCell = x, name
		}
	}
	if measured == 0 {
		t.Fatalf("no cell exhausts within %d runs", dedupGateMaxRuns)
	}
	if best < 2 {
		t.Fatalf("dedup regression: best runs-explored reduction %.2fx (%s) < 2x over %d cells", best, bestCell, measured)
	}
	t.Logf("best dedup reduction %.2fx on %s (%d cells)", best, bestCell, measured)
}
