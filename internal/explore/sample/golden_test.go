package sample_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
)

// samplingGolden is one pinned fixed-seed sampling pass with coverage on.
type samplingGolden struct {
	name     string
	spec     string
	params   spec.Params
	strategy string
	samples  int
	seed     int64

	digest   string // sha256 of the OnSample scripts, one line per sample
	distinct int64
	lookups  int64
	hits     int64
	maxDepth int
}

// samplingGoldens pins the detector and commit-adopt sampling cells of the
// repository benchmark at small budgets (bg is pinned by
// TestBGPCTScriptsGolden). They were recorded before self-grants were
// consulted in place and before the visited store stopped counting its own
// probes, so they hold the scheduler and the coverage accounting to the
// schedules and counts of the dispatcher-only protocol.
var samplingGoldens = []samplingGolden{
	{
		name: "detector/pct", spec: "detector", params: spec.Params{spec.ParamCrashes: 1},
		strategy: sample.StrategyPCT, samples: 300, seed: 3,
		digest:   "fe9f9817ebb18f5e4f7574e7fae07bfb544af97ed8634d50b4f4b26c7807765a",
		distinct: 3654, lookups: 67654, hits: 64000, maxDepth: 2032,
	},
	{
		name: "commitadopt/swarm", spec: "commitadopt", params: spec.Params{"n": 3, spec.ParamCrashes: 1},
		strategy: sample.StrategySwarm, samples: 1000, seed: 3,
		digest:   "1e654b2240a737516202fc46f88d825ea26180da92afe06eb97644779322617e",
		distinct: 1265, lookups: 14273, hits: 13008, maxDepth: 15,
	},
}

// TestSamplingGolden replays each pinned pass sequentially and requires the
// byte-identical script stream and identical coverage counters.
func TestSamplingGolden(t *testing.T) {
	for _, g := range samplingGoldens {
		t.Run(g.name, func(t *testing.T) {
			s, p, sess := session(t, g.spec, g.params)
			scripts := make([]string, g.samples)
			st, err := runSeq(sess, g.strategy, sample.Config{
				Samples: g.samples, Seed: g.seed, Coverage: true,
				MaxSteps: p[spec.ParamSteps], MaxCrashes: p[spec.ParamCrashes], Depth: s.Sampling().Depth,
				OnSample: func(i int, script []string) { scripts[i] = fmt.Sprint(script) },
			})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, sc := range scripts {
				fmt.Fprintln(h, sc)
			}
			got := samplingGolden{
				digest: hex.EncodeToString(h.Sum(nil)), distinct: st.Distinct,
				lookups: st.Coverage.Lookups, hits: st.Coverage.Hits, maxDepth: st.MaxDepth,
			}
			if got.digest != g.digest || got.distinct != g.distinct || got.lookups != g.lookups ||
				got.hits != g.hits || got.maxDepth != g.maxDepth {
				t.Fatalf("digest %s distinct %d lookups %d hits %d maxDepth %d; golden %s %d %d %d %d",
					got.digest, got.distinct, got.lookups, got.hits, got.maxDepth,
					g.digest, g.distinct, g.lookups, g.hits, g.maxDepth)
			}
		})
	}
}

// TestStoreAccountingBalances runs a parallel dedup walk and a parallel
// coverage pass, polling Progress while they run: every mid-run snapshot
// reports non-negative hits and balanced counters, and the final counters
// satisfy Hits + States == Lookups exactly.
func TestStoreAccountingBalances(t *testing.T) {
	check := func(t *testing.T, when string, d explore.DedupStats) bool {
		t.Helper()
		if d.Hits < 0 || d.Hits+d.States != d.Lookups {
			t.Errorf("%s: hits %d + states %d != lookups %d", when, d.Hits, d.States, d.Lookups)
			return false
		}
		return true
	}
	poll := func(t *testing.T, snap func() explore.DedupStats) (stop func() int) {
		done := make(chan struct{})
		var wg sync.WaitGroup
		polls := 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if !check(t, "mid-run", snap()) {
					return
				}
				polls++
			}
		}()
		return func() int { close(done); wg.Wait(); return polls }
	}

	t.Run("dedup-walk", func(t *testing.T) {
		s, p, _ := session(t, "commitadopt", spec.Params{"n": 3, spec.ParamCrashes: 1})
		cfg, err := spec.Config(s, p, explore.Config{Dedup: true, Workers: 2, MaxRuns: 20000})
		if err != nil {
			t.Fatal(err)
		}
		var prog explore.Progress
		cfg.Progress = &prog
		stop := poll(t, func() explore.DedupStats { return prog.Snapshot().Dedup })
		st, err := explore.ExploreParallel(func() explore.Session { return s.New(p) }, cfg)
		polls := stop()
		if err != nil {
			t.Fatal(err)
		}
		if st.Dedup.Lookups == 0 || st.Dedup.Hits == 0 {
			t.Fatalf("walk made no store hits: %+v", st.Dedup)
		}
		check(t, "final", st.Dedup)
		check(t, "detached", prog.Snapshot().Dedup)
		t.Logf("%d mid-run snapshots; final %+v", polls, st.Dedup)
	})

	t.Run("coverage", func(t *testing.T) {
		s, p, _ := session(t, "commitadopt", spec.Params{"n": 3, spec.ParamCrashes: 1})
		var prog explore.Progress
		stop := poll(t, func() explore.DedupStats { return prog.Snapshot().Dedup })
		st, err := sample.RunParallel(func() explore.Session { return s.New(p) }, sample.StrategySwarm, sample.Config{
			Samples: 3000, Seed: 1, Workers: 2, Coverage: true, Progress: &prog,
			MaxSteps: p[spec.ParamSteps], MaxCrashes: p[spec.ParamCrashes],
		})
		polls := stop()
		if err != nil {
			t.Fatal(err)
		}
		if st.Coverage.Lookups == 0 || st.Coverage.Hits == 0 {
			t.Fatalf("pass made no store hits: %+v", st.Coverage)
		}
		check(t, "final", st.Coverage)
		check(t, "detached", prog.Snapshot().Dedup)
		t.Logf("%d mid-run snapshots; final %+v", polls, st.Coverage)
	})
}
