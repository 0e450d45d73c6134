//go:build !race

package sample_test

import (
	"runtime"
	"testing"

	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
)

// swarmSampleAllocs bounds the allocations of one commitadopt/swarm sample
// (n=3, one crash, coverage on). A sample allocates nothing since the
// multiset fold and crash decisions stopped allocating (11.5 before); the
// bound leaves room for one allocation per 20 samples, for what the
// runtime may allocate on its own (a sync.Pool refilled after a GC).
const swarmSampleAllocs = 0.05

// TestSampleAllocs: a sequential commitadopt/swarm pass with coverage makes
// at most swarmSampleAllocs allocations per sample. The count is the
// difference between a pass of 2k samples and one of k, so the pass's fixed
// setup (runtime, adversary, visited store) cancels out. Each pass size is
// measured three times and its fewest mallocs kept: what the runtime
// allocates on its own lands in one pass or another, and when it landed in
// a k pass alone the difference went negative.
func TestSampleAllocs(t *testing.T) {
	const k = 1000
	pass := func(samples int) int64 {
		s, p, sess := session(t, "commitadopt", spec.Params{"n": 3, spec.ParamCrashes: 1})
		cfg := sample.Config{
			Samples: samples, Seed: 1, Workers: 1, Coverage: true,
			MaxSteps: p[spec.ParamSteps], MaxCrashes: p[spec.ParamCrashes], Depth: s.Sampling().Depth,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := runSeq(sess, sample.StrategySwarm, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	fewest := func(samples int) int64 {
		return min(pass(samples), pass(samples), pass(samples))
	}
	pass(k) // warm the label and spec caches
	per := float64(fewest(2*k)-fewest(k)) / k
	t.Logf("%.2f allocs per sample", per)
	if per > swarmSampleAllocs {
		t.Errorf("commitadopt/swarm: %.2f allocs per sample, bound %v", per, swarmSampleAllocs)
	}
}
