package spectest_test

// The fold-equivalence golden: the state counts every registered spec
// reaches under state dedup, symmetry reduction and the sampler's coverage
// estimator, on its declared defaults and again with one crash. The counts
// were recorded while composite cells still folded through fmt formatting
// and stored values were boxed into interfaces; the allocation-free pointer
// folds must separate and merge exactly the same states, so every count must
// stay identical.

import (
	"context"
	"fmt"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
)

// foldGolden maps "spec/crashes/measure" to its recorded count. Measures:
// "dedup" (sequential dedup Runs), "symmetry" (sequential dedup+symmetry
// Runs, on specs declaring it) and "distinct" (fixed-seed PCT coverage
// Distinct, on every spec: without a Fingerprint the coverage digest is the
// observation digests, which is where BG's and the detector's cells fold).
var foldGolden = map[string]int64{
	"bg/0/distinct":          311,
	"bg/1/distinct":          350,
	"cas/0/dedup":            10,
	"cas/0/distinct":         11,
	"cas/1/dedup":            40,
	"cas/1/distinct":         11,
	"commitadopt/0/dedup":    38,
	"commitadopt/0/distinct": 19,
	"commitadopt/0/symmetry": 22,
	"commitadopt/1/dedup":    138,
	"commitadopt/1/distinct": 24,
	"commitadopt/1/symmetry": 77,
	"detector/0/distinct":    8223,
	"detector/1/distinct":    7799,
	"hierarchy/0/dedup":      10,
	"hierarchy/0/distinct":   13,
	"hierarchy/1/dedup":      36,
	"hierarchy/1/distinct":   13,
	"mlset/0/dedup":          29,
	"mlset/0/distinct":       25,
	"mlset/1/dedup":          113,
	"mlset/1/distinct":       25,
	"queue/0/dedup":          131,
	"queue/0/distinct":       31,
	"queue/1/dedup":          467,
	"queue/1/distinct":       34,
	"registers/0/dedup":      82,
	"registers/0/distinct":   31,
	"registers/0/symmetry":   27,
	"registers/1/dedup":      280,
	"registers/1/distinct":   34,
	"registers/1/symmetry":   84,
	"renaming/0/dedup":       54,
	"renaming/0/distinct":    19,
	"renaming/1/dedup":       220,
	"renaming/1/distinct":    24,
	"safe/0/dedup":           70,
	"safe/0/distinct":        19,
	"safe/1/dedup":           276,
	"safe/1/distinct":        25,
	"sb/0/dedup":             10,
	"sb/0/distinct":          11,
	"sb/1/dedup":             36,
	"sb/1/distinct":          11,
	"stack/0/dedup":          131,
	"stack/0/distinct":       31,
	"stack/1/dedup":          467,
	"stack/1/distinct":       34,
	"testandset/0/dedup":     29,
	"testandset/0/distinct":  25,
	"testandset/0/symmetry":  12,
	"testandset/1/dedup":     101,
	"testandset/1/distinct":  25,
	"testandset/1/symmetry":  35,
	"universal/0/dedup":      23,
	"universal/0/distinct":   19,
	"universal/1/dedup":      84,
	"universal/1/distinct":   25,
	"xcompete/0/dedup":       44,
	"xcompete/0/distinct":    39,
	"xcompete/1/dedup":       152,
	"xcompete/1/distinct":    42,
	"xconsensus/0/dedup":     5,
	"xconsensus/0/distinct":  7,
	"xconsensus/1/dedup":     17,
	"xconsensus/1/distinct":  7,
	"xsafe/0/dedup":          29,
	"xsafe/0/distinct":       15,
	"xsafe/1/dedup":          103,
	"xsafe/1/distinct":       19,
}

// equivalenceMaxRuns caps the walks of specs whose default trees are too
// large to exhaust in a unit test; the cap is deterministic, so a truncated
// count is as reproducible as an exhausted one.
const equivalenceMaxRuns = 20000

// equivalenceSamples bounds the coverage passes (the spec's declared budget
// when smaller).
const equivalenceSamples = 1000

func foldCounts(t *testing.T, s spec.Spec, crashes int) map[string]int64 {
	t.Helper()
	p, err := spec.Resolve(s, spec.Params{spec.ParamCrashes: crashes})
	if err != nil {
		t.Fatalf("Resolve(%s): %v", s.Name(), err)
	}
	key := fmt.Sprintf("%s/%d/", s.Name(), crashes)
	out := make(map[string]int64)
	walk := func(measure string, base explore.Config) {
		base.MaxRuns = equivalenceMaxRuns
		cfg, err := spec.Config(s, p, base)
		if err != nil {
			t.Fatalf("spec.Config(%s, %s): %v", s.Name(), measure, err)
		}
		st, err := explore.ExploreSession(s.New(p), cfg)
		if err != nil {
			t.Fatalf("%s %s at %s: %v", measure, s.Name(), p.Text(s), err)
		}
		out[key+measure] = int64(st.Runs)
	}
	if s.SupportsDedup() {
		walk("dedup", explore.Config{Dedup: true})
	}
	if s.SupportsSymmetry() {
		walk("symmetry", explore.Config{Dedup: true, Symmetry: true})
	}
	samples := equivalenceSamples
	if b := s.Sampling().Budget; b > 0 && b < samples {
		samples = b
	}
	st, err := sample.RunContext(context.Background(), spec.Factory(s, p), sample.StrategyPCT, sample.Config{
		Workers:    1,
		Samples:    samples,
		Seed:       1,
		MaxSteps:   p[spec.ParamSteps],
		MaxCrashes: p[spec.ParamCrashes],
		Depth:      s.Sampling().Depth,
		Coverage:   true,
	})
	if err != nil {
		t.Fatalf("sample %s at %s: %v", s.Name(), p.Text(s), err)
	}
	if len(st.Series) == 0 {
		t.Errorf("sample %s at %s: coverage pass recorded no Series", s.Name(), p.Text(s))
	}
	out[key+"distinct"] = st.Distinct
	return out
}

// TestFoldEquivalenceGolden pins the golden counts of every registered spec.
func TestFoldEquivalenceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("walks every registered spec at its defaults")
	}
	got := make(map[string]int64)
	for _, s := range spec.All() {
		for _, crashes := range []int{0, 1} {
			for k, v := range foldCounts(t, s, crashes) {
				got[k] = v
			}
		}
	}
	for k, want := range foldGolden {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: not measured (spec or capability gone)", k)
		} else if g != want {
			t.Errorf("%s: %d, golden %d", k, g, want)
		}
	}
	for k := range got {
		if _, ok := foldGolden[k]; !ok {
			t.Errorf("%s: no golden recorded", k)
		}
	}
}
