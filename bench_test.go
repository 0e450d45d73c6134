// Benchmarks regenerating every figure and table artifact of the paper (the
// E1..E12 index of DESIGN.md). Absolute numbers measure this repository's
// discrete-event substrate, not the authors' testbed; the relevant outputs
// are the relative costs — how the simulations scale with n, t' and x, and
// where the ablations (snapshot substrate, test&set provider) differ.
package mpcn

import (
	"fmt"
	"testing"

	"mpcn/internal/agreement"
	"mpcn/internal/algorithms"
	"mpcn/internal/bg"
	"mpcn/internal/core"
	"mpcn/internal/detector"
	"mpcn/internal/explore"
	"mpcn/internal/explore/sessions"
	"mpcn/internal/explore/spec"
	"mpcn/internal/hierarchy"
	"mpcn/internal/model"
	"mpcn/internal/object"
	"mpcn/internal/reg"
	"mpcn/internal/sched"
	"mpcn/internal/snapshot"
	"mpcn/internal/tasks"
	"mpcn/internal/universal"
)

// BenchmarkFig1SafeAgreement measures one full safe_agreement round
// (n proposers, n deciders) per iteration.
func BenchmarkFig1SafeAgreement(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sa := agreement.NewSafeAgreement("sa", n)
				bodies := make([]sched.Proc, n)
				for p := range bodies {
					v := 100 + p
					bodies[p] = func(e *sched.Env) {
						sa.Propose(e, v)
						e.Decide(sa.Decide(e))
					}
				}
				res, err := sched.Run(sched.Config{Seed: int64(i)}, bodies)
				if err != nil || res.DistinctDecided() != 1 {
					b.Fatalf("iteration %d: err=%v", i, err)
				}
			}
		})
	}
}

// BenchmarkFig23BGSimulation measures the classic BG simulation of the
// t-resilient (t+1)-set algorithm for n simulated processes on t+1
// simulators.
func BenchmarkFig23BGSimulation(b *testing.B) {
	for _, tc := range []struct{ n, t int }{{4, 1}, {6, 2}, {8, 3}} {
		b.Run(fmt.Sprintf("n=%d/t=%d", tc.n, tc.t), func(b *testing.B) {
			inputs := tasks.DistinctInputs(tc.n)
			for i := 0; i < b.N; i++ {
				r, err := bg.Simulate(algorithms.SnapshotKSet{T: tc.t}, inputs, tc.t,
					sched.Config{Seed: int64(i)})
				if err != nil || r.Sched.NumDecided() != tc.t+1 {
					b.Fatalf("iteration %d: err=%v", i, err)
				}
			}
		})
	}
}

// BenchmarkFig4ForwardSim measures the Section 3 simulation (Figure 4's
// sim_x_cons_propose included): GroupedKSet in ASM(n, t', x) run in
// ASM(n, ⌊t'/x⌋, 1).
func BenchmarkFig4ForwardSim(b *testing.B) {
	for _, tc := range []struct{ k, x int }{{2, 2}, {2, 3}, {3, 2}} {
		n := tc.k * tc.x
		src := model.ASM{N: n, T: n - 1, X: tc.x}
		dst := model.ASM{N: n, T: src.Level(), X: 1}
		b.Run(fmt.Sprintf("k=%d/x=%d", tc.k, tc.x), func(b *testing.B) {
			inputs := tasks.DistinctInputs(n)
			for i := 0; i < b.N; i++ {
				r, err := core.ForwardSim(algorithms.GroupedKSet{K: tc.k, X: tc.x},
					inputs, src, dst, sched.Config{Seed: int64(i)})
				if err != nil || r.Sched.BudgetExhausted {
					b.Fatalf("iteration %d: err=%v", i, err)
				}
			}
		})
	}
}

// BenchmarkFig5XCompete measures the x_compete cascade, ablated over the
// test&set provider: primitive objects vs. test&set built from x-consensus
// (the [19] construction the ASM model actually grants).
func BenchmarkFig5XCompete(b *testing.B) {
	providers := map[string]agreement.TASProvider{
		"primitiveTAS": nil,
		"tasFromXCons": func(name string) agreement.TAS {
			return hierarchy.NewTASFromConsensus(
				hierarchy.NewFromXConsensus(object.NewXConsensus(name+".cons", 16, nil)))
		},
	}
	for pname, provider := range providers {
		for _, tc := range []struct{ n, x int }{{4, 2}, {8, 4}} {
			b.Run(fmt.Sprintf("%s/n=%d/x=%d", pname, tc.n, tc.x), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					comp := agreement.NewXCompete("xc", tc.x, provider)
					winners := 0
					bodies := make([]sched.Proc, tc.n)
					for p := range bodies {
						bodies[p] = func(e *sched.Env) {
							if comp.Compete(e) {
								winners++
							}
							e.Decide(0)
						}
					}
					if _, err := sched.Run(sched.Config{Seed: int64(i)}, bodies); err != nil {
						b.Fatal(err)
					}
					if winners != tc.x {
						b.Fatalf("winners = %d, want %d", winners, tc.x)
					}
				}
			})
		}
	}
}

// BenchmarkFig6XSafeAgreement measures one x_safe_agreement round; the scan
// over C(n, x) subsets dominates as x grows.
func BenchmarkFig6XSafeAgreement(b *testing.B) {
	for _, tc := range []struct{ n, x int }{{4, 2}, {6, 2}, {6, 3}, {8, 4}} {
		b.Run(fmt.Sprintf("n=%d/x=%d", tc.n, tc.x), func(b *testing.B) {
			f := agreement.NewXSafeFactory(tc.n, tc.x, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xs := f.New("xsa")
				bodies := make([]sched.Proc, tc.n)
				for p := range bodies {
					v := 100 + p
					bodies[p] = func(e *sched.Env) {
						xs.Propose(e, v)
						e.Decide(xs.Decide(e))
					}
				}
				res, err := sched.Run(sched.Config{Seed: int64(i)}, bodies)
				if err != nil || res.DistinctDecided() != 1 {
					b.Fatalf("iteration %d: err=%v", i, err)
				}
			}
		})
	}
}

// BenchmarkFig7EquivalenceChain measures the full Figure 7 chain: forward,
// BG and reverse stages on 3-set agreement.
func BenchmarkFig7EquivalenceChain(b *testing.B) {
	m1 := model.ASM{N: 6, T: 5, X: 2}
	canon := m1.Canonical()
	inputs := tasks.DistinctInputs(6)
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		if _, err := core.ForwardSim(algorithms.GroupedKSet{K: 3, X: 2}, inputs, m1, canon,
			sched.Config{Seed: seed}); err != nil {
			b.Fatal(err)
		}
		if _, err := core.GeneralizedBG(algorithms.SnapshotKSet{T: 2}, inputs, canon,
			sched.Config{Seed: seed}); err != nil {
			b.Fatal(err)
		}
		if _, err := core.ReverseSim(algorithms.SnapshotKSet{T: 2}, inputs, canon, m1,
			sched.Config{Seed: seed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8ColoredSim measures the §5.5 colored simulation of wait-free
// renaming.
func BenchmarkFig8ColoredSim(b *testing.B) {
	src := model.ASM{N: 7, T: 3, X: 1}
	dst := model.ASM{N: 5, T: 2, X: 2}
	inputs := tasks.DistinctInputs(7)
	task := tasks.Renaming{M: 13}
	for i := 0; i < b.N; i++ {
		r, err := core.ColoredSim(algorithms.Renaming{}, inputs, src, dst,
			sched.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := core.ValidateColored(task, inputs, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable54Classes measures the §5.4 class partition (pure model
// algebra; included for completeness of the per-artifact index).
func BenchmarkTable54Classes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		classes, err := model.Classes(64, 8)
		if err != nil || len(classes) != 5 {
			b.Fatalf("classes=%d err=%v", len(classes), err)
		}
	}
}

// BenchmarkTheoremBoundarySweep measures one full solvable-frontier sweep
// (the E9 grid): 12 reverse simulations under crashes.
func BenchmarkTheoremBoundarySweep(b *testing.B) {
	const n = 6
	inputs := tasks.DistinctInputs(n)
	for i := 0; i < b.N; i++ {
		for _, x := range []int{1, 2, 3} {
			for tPrime := 1; tPrime <= 4; tPrime++ {
				dst := model.ASM{N: n, T: tPrime, X: x}
				k := dst.Level() + 1
				src := model.ASM{N: n, T: k - 1, X: 1}
				adv := sched.NewPlan(sched.NewRandom(int64(i)))
				for v := 0; v < tPrime; v++ {
					adv.CrashAfterProcSteps(sched.ProcID(v), 20*(v+1))
				}
				r, err := core.ReverseSim(algorithms.SnapshotKSet{T: k - 1}, inputs, src, dst,
					sched.Config{Adversary: adv})
				if err != nil || r.Sched.BudgetExhausted {
					b.Fatalf("x=%d t'=%d: err=%v", x, tPrime, err)
				}
			}
		}
	}
}

// BenchmarkConsensusViaXCons measures direct consensus through an x-ported
// object with t = x-1 crashes (the solvable side of §1.2's example).
func BenchmarkConsensusViaXCons(b *testing.B) {
	for _, x := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("x=%d", x), func(b *testing.B) {
			const n = 6
			inputs := tasks.DistinctInputs(n)
			for i := 0; i < b.N; i++ {
				victims := make([]sched.ProcID, x-1)
				for v := range victims {
					victims[v] = sched.ProcID(v)
				}
				adv := sched.NewCrashSet(sched.NewRandom(int64(i)), victims...)
				r, err := algorithms.Direct(algorithms.ConsensusViaXCons{X: x}, inputs, x,
					sched.Config{Adversary: adv})
				if err != nil || r.BudgetExhausted || r.DistinctDecided() != 1 {
					b.Fatalf("iteration %d: err=%v", i, err)
				}
			}
		})
	}
}

// BenchmarkHierarchyConstructions measures the consensus-number exhibits:
// 2-process consensus from test&set/queue and 6-process consensus from CAS.
func BenchmarkHierarchyConstructions(b *testing.B) {
	b.Run("fromTAS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cons := hierarchy.NewFromTAS("c", 0, 1)
			runPairConsensus(b, cons, int64(i))
		}
	})
	b.Run("fromQueue", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cons := hierarchy.NewFromQueue("c", 0, 1)
			runPairConsensus(b, cons, int64(i))
		}
	})
	b.Run("fromCAS-n6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cons := hierarchy.NewFromCAS("c", 6)
			bodies := make([]sched.Proc, 6)
			for p := range bodies {
				v := p
				bodies[p] = func(e *sched.Env) { e.Decide(cons.Propose(e, v)) }
			}
			res, err := sched.Run(sched.Config{Seed: int64(i)}, bodies)
			if err != nil || res.DistinctDecided() != 1 {
				b.Fatal(err)
			}
		}
	})
}

func runPairConsensus(b *testing.B, cons hierarchy.Consensus, seed int64) {
	b.Helper()
	bodies := []sched.Proc{
		func(e *sched.Env) { e.Decide(cons.Propose(e, 10)) },
		func(e *sched.Env) { e.Decide(cons.Propose(e, 20)) },
	}
	res, err := sched.Run(sched.Config{Seed: seed}, bodies)
	if err != nil || res.DistinctDecided() != 1 {
		b.Fatalf("err=%v", err)
	}
}

// BenchmarkSnapshotSubstrate ablates the snapshot implementation under the
// same workload: primitive one-step snapshots vs. the Afek-et-al register
// construction (E12).
func BenchmarkSnapshotSubstrate(b *testing.B) {
	impls := map[string]func(n int) snapshot.Snapshot[int]{
		"primitive": func(n int) snapshot.Snapshot[int] { return snapshot.NewPrimitive[int]("mem", n) },
		"afek":      func(n int) snapshot.Snapshot[int] { return snapshot.NewAfek[int]("mem", n) },
	}
	for name, mk := range impls {
		for _, n := range []int{3, 6} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					snap := mk(n)
					bodies := make([]sched.Proc, n)
					for j := 0; j < n; j++ {
						j := j
						bodies[j] = func(e *sched.Env) {
							for r := 1; r <= 4; r++ {
								snap.Update(e, j, r)
								snap.Scan(e)
							}
							e.Decide(0)
						}
					}
					res, err := sched.Run(sched.Config{Seed: int64(i)}, bodies)
					if err != nil || res.NumDecided() != n {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReverseSimXSweep isolates the cost driver of the Section 4
// simulation: the C(n', x) subset scan inside every x_safe_agreement.
func BenchmarkReverseSimXSweep(b *testing.B) {
	const n = 6
	inputs := tasks.DistinctInputs(n)
	for _, x := range []int{1, 2, 3} {
		tPrime := x // level 1
		src := model.ASM{N: n, T: 1, X: 1}
		dst := model.ASM{N: n, T: tPrime, X: x}
		b.Run(fmt.Sprintf("x=%d", x), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := core.ReverseSim(algorithms.SnapshotKSet{T: 1}, inputs, src, dst,
					sched.Config{Seed: int64(i)})
				if err != nil || r.Sched.BudgetExhausted {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOmegaConsensus measures the Ω-gated shared-memory Paxos
// (extension E13): failure-free and with n-1 initial deaths.
func BenchmarkOmegaConsensus(b *testing.B) {
	const n = 5
	b.Run("crash-free", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cons := detector.NewOmegaConsensus("oc", n)
			bodies := make([]sched.Proc, n)
			for p := range bodies {
				v := 100 + p
				bodies[p] = func(e *sched.Env) { e.Decide(cons.Propose(e, v)) }
			}
			res, err := sched.Run(sched.Config{Seed: int64(i)}, bodies)
			if err != nil || res.DistinctDecided() != 1 {
				b.Fatal(err)
			}
		}
	})
	b.Run("n-1-dead", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cons := detector.NewOmegaConsensus("oc", n)
			bodies := make([]sched.Proc, n)
			for p := range bodies {
				v := 100 + p
				bodies[p] = func(e *sched.Env) { e.Decide(cons.Propose(e, v)) }
			}
			adv := sched.NewCrashSet(sched.NewRandom(int64(i)), 0, 1, 2, 3)
			res, err := sched.Run(sched.Config{Adversary: adv}, bodies)
			if err != nil || res.BudgetExhausted {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMLKSet measures k-set agreement from (m, l)-set objects
// (extension E14) across the Herlihy-Rajsbaum parameter space.
func BenchmarkMLKSet(b *testing.B) {
	for _, tc := range []struct{ n, t, m, l int }{{6, 3, 2, 1}, {7, 4, 3, 2}} {
		b.Run(fmt.Sprintf("n=%d/t=%d/m=%d/l=%d", tc.n, tc.t, tc.m, tc.l), func(b *testing.B) {
			inputs := tasks.DistinctInputs(tc.n)
			bound := algorithms.MLKSetBound(tc.t, tc.m, tc.l)
			for i := 0; i < b.N; i++ {
				res, err := algorithms.RunMLKSet(inputs, tc.t, tc.m, tc.l,
					sched.Config{Seed: int64(i)})
				if err != nil || res.DistinctDecided() > bound {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUniversalConstruction measures Herlihy's universal construction:
// x processes each performing 4 counter increments.
func BenchmarkUniversalConstruction(b *testing.B) {
	for _, x := range []int{2, 4} {
		b.Run(fmt.Sprintf("x=%d", x), func(b *testing.B) {
			ports := make([]sched.ProcID, x)
			for i := range ports {
				ports[i] = sched.ProcID(i)
			}
			for i := 0; i < b.N; i++ {
				u := universal.New("ctr", ports, 0,
					func(s int, _ struct{}) (int, int) { return s + 1, s + 1 })
				bodies := make([]sched.Proc, x)
				for p := range bodies {
					p := p
					bodies[p] = func(e *sched.Env) {
						h := u.NewHandle(sched.ProcID(p))
						for k := 0; k < 4; k++ {
							h.Invoke(e, struct{}{})
						}
						e.Decide(0)
					}
				}
				res, err := sched.Run(sched.Config{Seed: int64(i)}, bodies)
				if err != nil || res.NumDecided() != x {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBoostedConsensus measures the Ωx-boosted consensus (extension
// E13): n-process consensus from x-ported objects and the Ωx oracle.
func BenchmarkBoostedConsensus(b *testing.B) {
	for _, tc := range []struct{ n, x int }{{4, 2}, {6, 3}} {
		b.Run(fmt.Sprintf("n=%d/x=%d", tc.n, tc.x), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cons := detector.NewBoostedConsensus("bc", tc.n, tc.x)
				bodies := make([]sched.Proc, tc.n)
				for p := range bodies {
					v := 100 + p
					bodies[p] = func(e *sched.Env) { e.Decide(cons.Propose(e, v)) }
				}
				res, err := sched.Run(sched.Config{Seed: int64(i)}, bodies)
				if err != nil || res.DistinctDecided() != 1 {
					b.Fatal(err)
				}
			}
		})
	}
}

// exploreBenchSession is the fixed workload of the explorer benchmark:
// 3 processes each writing a private register 3 times, a 34650-leaf decision
// tree (12 grants interleaved as 12!/(4!^3)).
var exploreBenchSession = sessions.Registers(3, 3, 0, reg.Atomic)

// BenchmarkParallelVsSequential measures the exhaustive explorer on the
// fixed 34650-run tree: the sequential DFS against the frontier-sharded
// worker pool, plus the partial-order-reduced tree for scale. Every variant
// must report the configuration exhausted, and all unpruned variants must
// visit the identical run count — the engine's determinism guarantee.
// Parallel speedup tracks the cores the host grants; on a single-CPU
// container the pool runs at sequential parity.
func BenchmarkParallelVsSequential(b *testing.B) {
	const wantRuns = 34650
	verify := func(b *testing.B, stats explore.Stats, err error, runs int) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if !stats.Exhausted {
			b.Fatal("exploration did not exhaust")
		}
		if runs > 0 && stats.Runs != runs {
			b.Fatalf("runs = %d, want %d", stats.Runs, runs)
		}
		b.ReportMetric(stats.RunsPerSec(), "runs/sec")
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats, err := explore.ExploreSession(exploreBenchSession(), explore.Config{})
			verify(b, stats, err, wantRuns)
		}
	})
	for _, workers := range []int{4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats, err := explore.ExploreParallel(exploreBenchSession,
					explore.Config{Workers: workers})
				verify(b, stats, err, wantRuns)
			}
		})
	}
	b.Run("sequential-pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats, err := explore.ExploreSession(exploreBenchSession(), explore.Config{Prune: true})
			verify(b, stats, err, 0)
		}
	})
}

// BenchmarkSessionReplay measures the session-reuse runtime on the
// commit-adopt exhaustive sweep (n=2, one crash allowed: 1174 runs):
// process coroutines created once, direct token dispatch, pooled buffers,
// sequential and with a four-worker pool. The state spaces are asserted
// identical here and checked against the rendezvous protocol by explore's
// TestSessionReuseMatchesRendezvous.
func BenchmarkSessionReplay(b *testing.B) {
	const wantRuns = 1174
	variant := func(parallel bool) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := explore.Config{MaxCrashes: 1, MaxSteps: 64}
				var stats explore.Stats
				var err error
				if parallel {
					cfg.Workers = 4
					stats, err = explore.ExploreParallel(sessions.CommitAdopt(2), cfg)
				} else {
					stats, err = explore.ExploreSession(sessions.CommitAdopt(2)(), cfg)
				}
				if err != nil || !stats.Exhausted {
					b.Fatal(err)
				}
				if stats.Runs != wantRuns {
					b.Fatalf("runs = %d, want %d", stats.Runs, wantRuns)
				}
				b.ReportMetric(stats.RunsPerSec(), "runs/sec")
			}
		}
	}
	b.Run("session", variant(false))
	b.Run("parallel-session", variant(true))
}

// trackedCellFloor is BenchmarkTrackedCell's throughput floor in runs/sec:
// 0.4 × 492,421, the last runs/sec recorded for the cell before this
// benchmark became its gate, less a 60% tolerance. The tolerance absorbs
// the spread between hosts; the floor exists to catch order-of-magnitude
// regressions of the replay hot path, not to rank CI hardware.
const trackedCellFloor = 196968

// BenchmarkTrackedCell exhausts the tracked throughput cell — commit-adopt,
// n=3, no crashes, 756,756 runs — with the sequential engine and reports
// the best runs/sec of the b.N exhaustions. Once b.N reaches 3 it fails
// when that best falls below trackedCellFloor; `make throughput-gate` runs
// it with -benchtime 3x.
func BenchmarkTrackedCell(b *testing.B) {
	const wantRuns = 756756
	s, err := spec.Lookup("commitadopt")
	if err != nil {
		b.Fatal(err)
	}
	p, err := spec.Resolve(s, spec.Params{"n": 3, spec.ParamCrashes: 0})
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := spec.Config(s, p, explore.Config{})
	if err != nil {
		b.Fatal(err)
	}
	best := 0.0
	for i := 0; i < b.N; i++ {
		stats, err := explore.ExploreSession(s.New(p), cfg)
		if err != nil || !stats.Exhausted {
			b.Fatalf("exploration failed: err=%v exhausted=%v", err, stats.Exhausted)
		}
		if stats.Runs != wantRuns {
			b.Fatalf("runs = %d, want %d", stats.Runs, wantRuns)
		}
		best = max(best, stats.RunsPerSec())
	}
	b.ReportMetric(best, "runs/sec")
	if b.N >= 3 && best < trackedCellFloor {
		b.Fatalf("throughput regression: best of %d exhaustions ran %.0f runs/sec, below the floor of %d",
			b.N, best, trackedCellFloor)
	}
}

// BenchmarkTrackedCellFloor exhausts the tree of BenchmarkTrackedCell with
// nothing in it: three processes that each take four steps (a start grant
// and four step grants apiece, as a commit-adopt proposer's two updates and
// two scans), bodies that touch no shared object, and a checker that
// accepts every run. Its 756,756 runs cost only the scheduler's grants and
// coroutine switches and the walker's replays, so the gap between its
// runs/sec and the tracked cell's is what the objects and the checker cost;
// a regression that shows here too lies in the harness or the runtime.
func BenchmarkTrackedCellFloor(b *testing.B) {
	const wantRuns, n, steps = 756756, 3, 4
	labels := sched.InternIndexed("%s[%d]", "floor", steps)
	body := func(e *sched.Env) {
		for _, l := range labels {
			e.StepL(l)
		}
	}
	session := explore.Session{
		Make: func() []sched.Proc {
			bodies := make([]sched.Proc, n)
			for i := range bodies {
				bodies[i] = body
			}
			return bodies
		},
		Check: func(*sched.Result) error { return nil },
	}
	best := 0.0
	for i := 0; i < b.N; i++ {
		stats, err := explore.ExploreSession(session, explore.Config{})
		if err != nil || !stats.Exhausted {
			b.Fatalf("exploration failed: err=%v exhausted=%v", err, stats.Exhausted)
		}
		if stats.Runs != wantRuns {
			b.Fatalf("runs = %d, want %d", stats.Runs, wantRuns)
		}
		best = max(best, stats.RunsPerSec())
	}
	b.ReportMetric(best, "runs/sec")
}

// BenchmarkCommitAdopt measures one commit-adopt round under contention.
func BenchmarkCommitAdopt(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ca := agreement.NewCommitAdopt("ca", n)
				bodies := make([]sched.Proc, n)
				for p := range bodies {
					v := p
					bodies[p] = func(e *sched.Env) {
						got, _ := ca.Propose(e, v)
						e.Decide(got)
					}
				}
				if _, err := sched.Run(sched.Config{Seed: int64(i)}, bodies); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkImmediateSnapshot measures the one-shot immediate snapshot's
// recursive level descent (O(n^2) register operations worst case).
func BenchmarkImmediateSnapshot(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				is := snapshot.NewImmediate[int]("is", n)
				bodies := make([]sched.Proc, n)
				for p := range bodies {
					v := 100 + p
					bodies[p] = func(e *sched.Env) {
						is.WriteSnapshot(e, v)
						e.Decide(0)
					}
				}
				res, err := sched.Run(sched.Config{Seed: int64(i)}, bodies)
				if err != nil || res.NumDecided() != n {
					b.Fatal(err)
				}
			}
		})
	}
}
