// Package mpcn reproduces "The Multiplicative Power of Consensus Numbers"
// (Damien Imbs & Michel Raynal, PODC 2010 / IRISA PI 1949): an executable
// model of asynchronous crash-prone shared memory ASM(n, t, x), the classic
// Borowsky-Gafni simulation, and the paper's forward (Section 3), reverse
// (Section 4) and colored (Section 5.5) simulations, establishing that
// ASM(n1, t1, x1) and ASM(n2, t2, x2) solve the same colorless decision
// tasks iff ⌊t1/x1⌋ = ⌊t2/x2⌋.
//
// The execution substrate is internal/sched: a deterministic single-runner
// scheduler whose step labels are interned (sched.Label) and whose runtime
// is a reusable sched.Session — process coroutines are created once, park
// between runs, and are reset per run. The process holding the scheduling
// token decides the next grant itself and passes the token straight to the
// grantee, so a token handoff is one coroutine switch. The BG
// simulators' threads hand their shared steps back to the simulator, which
// takes them on its own coroutine. The exhaustive explorer
// (internal/explore) replays millions of runs per sweep on one Session per
// worker lane; sched.Run remains the one-shot entry point for single runs.
//
// Exploration scales through three knobs on explore.Config: Workers (the
// frontier-sharded parallel walk), Prune (partial-order reduction over
// interned labels) and Dedup (canonical state fingerprints — sched.FP /
// sched.Fingerprinter digests of shared-object state and per-process control
// points — looked up in a bounded, sharded visited-state store, so converged
// schedules are explored once: graph exploration instead of a tree walk).
// Dedup requires the harness to supply an explore.Session.Fingerprint; the
// soundness contract is spelled out in docs/ARCHITECTURE.md.
//
// Beyond the exhaustible boundary, internal/explore/sample draws seeded
// random schedules from the same decision tree, as a choice policy plugged
// into the explorer's engine core — the same lanes, worker pool, progress
// counters and decision alternatives (uniform walk, PCT with its
// 1/(n*k^(d-1)) depth-d bug bound, and swarm strategy mixing): sampled
// outcomes are provably contained in the exhaustive outcome set, fixed
// seeds reproduce byte-identical run scripts, and a bounded visited-state
// store doubles as a distinct-state coverage estimator — the route into the
// BG simulation and large ASM(n, t, x) cells; see docs/SAMPLING.md.
//
// See README.md for the architecture overview (including the exhaustive
// explorer) and docs/ for the deep dives; cmd/experiments prints the
// paper-claim vs. measured record (E1..E16). The benchmarks in bench_test.go
// regenerate every figure and table artifact; run them with
//
//	go test -bench=. -benchmem .
package mpcn
