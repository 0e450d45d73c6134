package sample_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
	"mpcn/internal/sched"
)

// TestSampleContextPreCanceled: a canceled context stops the draw before its
// first sample and surfaces the context's error.
func TestSampleContextPreCanceled(t *testing.T) {
	_, _, sess := session(t, "commitadopt", spec.Params{"n": 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := sample.RunContext(ctx, func() explore.Session { return sess }, sample.StrategyWalk,
		sample.Config{Samples: 100, Seed: 1, Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Samples != 0 {
		t.Fatalf("canceled-before-start run drew %d samples", st.Samples)
	}
}

// TestSampleContextCancelMidRun: cancellation from the sample callback stops
// the sequential draw at the next sample boundary.
func TestSampleContextCancelMidRun(t *testing.T) {
	_, _, sess := session(t, "commitadopt", spec.Params{"n": 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := sample.Config{Samples: 1000, Seed: 1, Workers: 1}
	cfg.OnSample = func(i int, script []string) {
		if i == 10 {
			cancel()
		}
	}
	st, err := sample.RunContext(ctx, func() explore.Session { return sess }, sample.StrategyWalk, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Samples >= cfg.Samples || st.Samples < 10 {
		t.Fatalf("partial samples wrong: %d of %d", st.Samples, cfg.Samples)
	}
}

// TestSampleContextCancelParallel: cancellation halts the worker pool at the
// next sample boundary.
func TestSampleContextCancelParallel(t *testing.T) {
	s, p, _ := session(t, "commitadopt", spec.Params{"n": 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var drawn atomic.Int64
	cfg := sample.Config{Samples: 100000, Seed: 1, Workers: 4}
	cfg.OnSample = func(i int, script []string) {
		if drawn.Add(1) == 50 {
			cancel()
		}
	}
	st, err := sample.RunContext(ctx, spec.Factory(s, p), sample.StrategyWalk, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Samples >= cfg.Samples || st.Samples < 50 {
		t.Fatalf("partial samples wrong: %d of %d", st.Samples, cfg.Samples)
	}
}

// TestSampleProgressTracksStats: the live Progress counters converge to the
// final Stats, including the coverage estimator's distinct-state count.
func TestSampleProgressTracksStats(t *testing.T) {
	s, p, sess := session(t, "commitadopt", spec.Params{"n": 2})
	var prog explore.Progress
	st, err := runSeq(sess, sample.StrategyWalk, sample.Config{Samples: 300, Seed: 1, Coverage: true, Progress: &prog})
	if err != nil {
		t.Fatal(err)
	}
	snap := prog.Snapshot()
	if snap.Runs != int64(st.Samples) {
		t.Fatalf("progress samples %d, stats %d", snap.Runs, st.Samples)
	}
	if snap.Dedup.States != st.Distinct || snap.Dedup.States == 0 {
		t.Fatalf("progress distinct %d, stats %d", snap.Dedup.States, st.Distinct)
	}

	var pprog explore.Progress
	pst, err := sample.RunParallel(spec.Factory(s, p), sample.StrategyWalk,
		sample.Config{Samples: 300, Seed: 1, Workers: 4, Coverage: true, Progress: &pprog})
	if err != nil {
		t.Fatal(err)
	}
	psnap := pprog.Snapshot()
	if psnap.Runs != int64(pst.Samples) {
		t.Fatalf("parallel progress samples %d, stats %d", psnap.Runs, pst.Samples)
	}
}

// countingRuntime counts RuntimeSource lease traffic.
type countingRuntime struct {
	acquired atomic.Int64
	released atomic.Int64
}

func (c *countingRuntime) Acquire(n int) (*sched.Session, error) {
	c.acquired.Add(1)
	return sched.NewSession(n)
}

func (c *countingRuntime) Release(rt *sched.Session) {
	c.released.Add(1)
	rt.Close()
}

var _ explore.RuntimeSource = (*countingRuntime)(nil)

// TestSampleRuntimeSourceLeases: with Config.Runtime set, sampling workers
// lease their runtimes from the source and return them.
func TestSampleRuntimeSourceLeases(t *testing.T) {
	s, p, _ := session(t, "commitadopt", spec.Params{"n": 2})
	var src countingRuntime
	_, err := sample.RunParallel(spec.Factory(s, p), sample.StrategyWalk,
		sample.Config{Samples: 200, Seed: 1, Workers: 4, Runtime: &src})
	if err != nil {
		t.Fatal(err)
	}
	if src.acquired.Load() == 0 {
		t.Fatal("sampling never leased from the RuntimeSource")
	}
	if a, r := src.acquired.Load(), src.released.Load(); a != r {
		t.Fatalf("lease imbalance: %d acquired, %d released", a, r)
	}
}
