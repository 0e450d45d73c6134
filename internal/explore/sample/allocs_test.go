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
// runtime may allocate on its own. The memoized digests keep their
// sub-accumulators in the objects: one kept in a local escaped through
// sched.Fold and cost 7.55 allocations per sample.
const swarmSampleAllocs = 0.05

// bgSampleAllocs bounds the allocations of one bg/pct sample (n=3, t=1,
// one crash, coverage on, the benchmark's 800-step budget). A BG run
// reuses its session's engine, agreements and simulator threads'
// coroutines (248.5 allocations per sample before, 11.9 since); nine tenths
// of what is left are the simulated snapshots' values, which the algorithm
// keeps. The bound leaves room for what the runtime may allocate on its
// own.
const bgSampleAllocs = 15

// detectorSampleAllocs bounds the allocations of one detector/pct sample
// (n=2, x=1, one crash, coverage on). The session reuses its boosted
// consensus object and the XC and CA objects earlier runs built (37.15
// allocations per sample before, 0.15 since).
const detectorSampleAllocs = 1

// TestSampleAllocs: a sequential commitadopt/swarm pass with coverage makes
// at most swarmSampleAllocs allocations per sample. The count is the
// difference between a pass of 2k samples and one of k, so the pass's fixed
// setup (runtime, adversary, visited store) cancels out. Each pass size is
// measured three times and its fewest mallocs kept: what the runtime
// allocates on its own lands in one pass or another, and when it landed in
// a k pass alone the difference went negative.
func TestSampleAllocs(t *testing.T) {
	per := allocsPerSample(t, "commitadopt", spec.Params{"n": 3, spec.ParamCrashes: 1}, sample.StrategySwarm, 0, 1000)
	if per > swarmSampleAllocs {
		t.Errorf("commitadopt/swarm: %.2f allocs per sample, bound %v", per, swarmSampleAllocs)
	}
}

// TestBGSampleAllocs: a sequential bg/pct pass with coverage makes at most
// bgSampleAllocs allocations per sample, measured as TestSampleAllocs does.
// The pass's fixed setup includes building the session's engine and
// starting its threads' coroutines, so the bound is on what every run pays.
func TestBGSampleAllocs(t *testing.T) {
	per := allocsPerSample(t, "bg", spec.Params{"n": 3, "t": 1, spec.ParamCrashes: 1}, sample.StrategyPCT, 800, 300)
	if per > bgSampleAllocs {
		t.Errorf("bg/pct: %.2f allocs per sample, bound %v", per, bgSampleAllocs)
	}
}

// TestDetectorSampleAllocs: a sequential detector/pct pass with coverage
// makes at most detectorSampleAllocs allocations per sample, measured as
// TestSampleAllocs does.
func TestDetectorSampleAllocs(t *testing.T) {
	per := allocsPerSample(t, "detector", spec.Params{spec.ParamCrashes: 1}, sample.StrategyPCT, 0, 300)
	if per > detectorSampleAllocs {
		t.Errorf("detector/pct: %.2f allocs per sample, bound %v", per, detectorSampleAllocs)
	}
}

// allocsPerSample returns the mallocs per sample of a sequential sampling
// pass of spec name with coverage: the fewest of three passes of 2k samples
// minus the fewest of three of k, over k. maxSteps 0 takes the spec's step
// budget.
func allocsPerSample(t *testing.T, name string, params spec.Params, strategy string, maxSteps, k int) float64 {
	t.Helper()
	pass := func(samples int) int64 {
		s, p, sess := session(t, name, params)
		if maxSteps == 0 {
			maxSteps = p[spec.ParamSteps]
		}
		cfg := sample.Config{
			Samples: samples, Seed: 1, Workers: 1, Coverage: true,
			MaxSteps: maxSteps, MaxCrashes: p[spec.ParamCrashes], Depth: s.Sampling().Depth,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := runSeq(sess, strategy, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	fewest := func(samples int) int64 {
		return min(pass(samples), pass(samples), pass(samples))
	}
	pass(k) // warm the label and spec caches
	per := float64(fewest(2*k)-fewest(k)) / float64(k)
	t.Logf("%s/%s: %.2f allocs per sample", name, strategy, per)
	return per
}
