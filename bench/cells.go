package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
)

// cell is one checker call of a tree, graph or sample pass: a registered
// spec at a parameter assignment, run by the exhaustive engine (strategy
// empty) or the sampling engine.
type cell struct {
	name     string
	spec     string
	params   spec.Params
	cfg      explore.Config // Prune, Dedup and Symmetry of exhaustive cells
	parallel bool           // exhaustive cells: ExploreParallel at the workload's workers
	strategy string         // sampling cells: RunParallel with this strategy
	samples  int
	maxSteps int
	tracked  bool // the commit-adopt cell docs/PERFORMANCE.md tracks

	// Gates. Sequential exhaustive cells must visit exactly runs/pruned.
	// Parallel dedup cells must exhaust within runsAtMost, a proven lower
	// bound of the tree walk's run count.
	runs, pruned int
	runsAtMost   int
}

// treeWalkAtLeast stands in for the tree-walk run count of the parallel
// graph cells, which is too large to enumerate: a walk without dedup had not
// exhausted either cell after 20,000,000 runs, so a dedup walk within that
// many runs is within the tree walk's count.
const treeWalkAtLeast = 20_000_000

func treeCells(short bool) []cell {
	if short {
		return []cell{
			{name: "commitadopt/n=2", spec: "commitadopt", params: spec.Params{"n": 2}, tracked: true, runs: 252},
			{name: "registers/n=2", spec: "registers", params: spec.Params{"n": 2}, runs: 20},
			{name: "commitadopt/n=2,crashes=1/prune", spec: "commitadopt", params: spec.Params{"n": 2, "crashes": 1}, cfg: explore.Config{Prune: true}, runs: 109, pruned: 29},
			{name: "xsafe/n=2,x=2/prune", spec: "xsafe", params: spec.Params{"n": 2, "x": 2}, cfg: explore.Config{Prune: true}, runs: 29, pruned: 24},
		}
	}
	return []cell{
		{name: "commitadopt/n=3", spec: "commitadopt", params: spec.Params{"n": 3}, tracked: true, runs: 756756},
		{name: "registers/n=3,writes=3", spec: "registers", params: spec.Params{"n": 3, "writes": 3}, runs: 34650},
		{name: "commitadopt/n=3,crashes=1/prune", spec: "commitadopt", params: spec.Params{"n": 3, "crashes": 1}, cfg: explore.Config{Prune: true}, runs: 11764, pruned: 5494},
		{name: "xsafe/n=3,x=2/prune", spec: "xsafe", params: spec.Params{"n": 3, "x": 2}, cfg: explore.Config{Prune: true}, runs: 4614, pruned: 4643},
	}
}

func graphCells(short bool) []cell {
	dedup := explore.Config{Dedup: true}
	sym := explore.Config{Dedup: true, Symmetry: true}
	if short {
		return []cell{
			{name: "commitadopt/n=3/dedup/parallel", spec: "commitadopt", params: spec.Params{"n": 3}, cfg: dedup, parallel: true, runsAtMost: 756756},
			{name: "safe/n=2,crashes=1/dedup/parallel", spec: "safe", params: spec.Params{"n": 2, "crashes": 1}, cfg: dedup, parallel: true, runsAtMost: 2124},
			{name: "commitadopt/n=3/dedup", spec: "commitadopt", params: spec.Params{"n": 3}, cfg: dedup, runs: 1784},
			{name: "commitadopt/n=3,crashes=1/symmetry", spec: "commitadopt", params: spec.Params{"n": 3, "crashes": 1}, cfg: sym, runs: 1208},
		}
	}
	return []cell{
		{name: "commitadopt/n=4/dedup/parallel", spec: "commitadopt", params: spec.Params{"n": 4}, cfg: dedup, parallel: true, runsAtMost: treeWalkAtLeast},
		{name: "safe/n=3,crashes=1/dedup/parallel", spec: "safe", params: spec.Params{"n": 3, "crashes": 1}, cfg: dedup, parallel: true, runsAtMost: treeWalkAtLeast},
		{name: "commitadopt/n=4/dedup", spec: "commitadopt", params: spec.Params{"n": 4}, cfg: dedup, runs: 199698},
		{name: "commitadopt/n=4,crashes=1/symmetry", spec: "commitadopt", params: spec.Params{"n": 4, "crashes": 1}, cfg: sym, runs: 24765},
	}
}

func sampleCells(short bool) []cell {
	scale := 1
	if short {
		scale = 50
	}
	n := 3
	if short {
		n = 2
	}
	return []cell{
		{name: "bg/pct", spec: "bg", params: spec.Params{"n": n, "t": 1, "crashes": 1}, strategy: sample.StrategyPCT, samples: 10000 / scale, maxSteps: 800},
		{name: "detector/pct", spec: "detector", params: spec.Params{"crashes": 1}, strategy: sample.StrategyPCT, samples: 5000 / scale},
		{name: "commitadopt/swarm", spec: "commitadopt", params: spec.Params{"n": n, "crashes": 1}, strategy: sample.StrategySwarm, samples: 50000 / scale},
	}
}

// callResult is what one cell call returned, with its harness closure
// timings when the call was traced.
type callResult struct {
	dur time.Duration
	est explore.Stats
	sst sample.Stats
	h   *harnessTimes
}

// call runs c once: resolve, configure, build and check, as a caller of the
// engines does per cell. A failed gate is an error.
func (c cell) call(seed int64, workers int, tr *tracer, parent int) (callResult, error) {
	var r callResult
	id := tr.begin("cell "+c.name, parent, "")
	defer tr.end(id)
	start := time.Now()
	sid := tr.begin("spec.Resolve", id, "")
	s, err := spec.Lookup(c.spec)
	var p spec.Params
	if err == nil {
		p, err = spec.Resolve(s, c.params)
	}
	tr.end(sid)
	if err != nil {
		return r, fmt.Errorf("%s: %w", c.name, err)
	}
	if tr != nil {
		r.h = &harnessTimes{}
	}
	newSession := func() explore.Session {
		if r.h != nil {
			return r.h.wrap(s.New(p))
		}
		return s.New(p)
	}
	if c.strategy != "" {
		cfg := sample.Config{
			Samples:    c.samples,
			Seed:       seed,
			MaxCrashes: p[spec.ParamCrashes],
			MaxSteps:   c.maxSteps,
			Depth:      s.Sampling().Depth,
			Workers:    workers,
			Coverage:   true,
		}
		wid := tr.begin("sample.RunParallel", id, "")
		r.sst, err = sample.RunParallel(newSession, c.strategy, cfg)
		tr.end(wid, r.h.calls()...)
		r.dur = time.Since(start)
		if err != nil {
			return r, fmt.Errorf("%s: %w", c.name, err)
		}
		if r.sst.Samples != c.samples {
			return r, fmt.Errorf("%s: drew %d samples, want %d", c.name, r.sst.Samples, c.samples)
		}
		return r, nil
	}
	sid = tr.begin("spec.Config", id, "")
	cfg, err := spec.Config(s, p, c.cfg)
	tr.end(sid)
	if err != nil {
		return r, fmt.Errorf("%s: %w", c.name, err)
	}
	if c.parallel {
		cfg.Workers = workers
		wid := tr.begin("explore.ExploreParallel", id, "")
		r.est, err = explore.ExploreParallel(newSession, cfg)
		tr.end(wid, r.h.calls()...)
	} else {
		sid = tr.begin("spec.New", id, "")
		sess := newSession()
		tr.end(sid)
		wid := tr.begin("explore.ExploreSession", id, "")
		r.est, err = explore.ExploreSession(sess, cfg)
		tr.end(wid, r.h.calls()...)
	}
	r.dur = time.Since(start)
	switch {
	case err != nil:
		return r, fmt.Errorf("%s: %w", c.name, err)
	case !r.est.Exhausted:
		return r, fmt.Errorf("%s: exploration did not exhaust", c.name)
	case c.runsAtMost > 0 && r.est.Runs > c.runsAtMost:
		return r, fmt.Errorf("%s: dedup walk visited %d runs, more than the tree walk's %d", c.name, r.est.Runs, c.runsAtMost)
	case c.runs > 0 && (r.est.Runs != c.runs || r.est.Pruned != c.pruned):
		return r, fmt.Errorf("%s: visited %d runs / %d pruned, golden is %d / %d", c.name, r.est.Runs, r.est.Pruned, c.runs, c.pruned)
	}
	return r, nil
}

// busy is the CPU-side wall time the engine spent on the call: the elapsed
// time of a sequential walk, or every worker's busy time plus the time the
// caller's goroutine spent outside the pool (the frontier pass) for a
// parallel one.
func (r callResult) busy() (total, outside time.Duration) {
	if r.sst.Workers != nil {
		for _, w := range r.sst.Workers {
			total += w.Busy
		}
		return total, 0
	}
	if r.est.Workers == nil {
		return r.est.Elapsed, 0
	}
	var maxBusy time.Duration
	for _, w := range r.est.Workers {
		total += w.Busy
		maxBusy = max(maxBusy, w.Busy)
	}
	outside = r.est.Elapsed - maxBusy
	return total + outside, outside
}

// skew is max over min worker busy time (0 without workers).
func (r callResult) skew() float64 {
	var busy []time.Duration
	for _, w := range r.est.Workers {
		busy = append(busy, w.Busy)
	}
	for _, w := range r.sst.Workers {
		busy = append(busy, w.Busy)
	}
	if len(busy) == 0 {
		return 0
	}
	lo, hi := busy[0], busy[0]
	for _, b := range busy {
		lo, hi = min(lo, b), max(hi, b)
	}
	if lo <= 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// cellBench is the tree, graph and sample workloads: passes over a fixed
// cell list in a seeded order.
type cellBench struct {
	seed    int64
	workers int
	cells   []cell

	// Untraced passes: rates as a caller sees them.
	exploreRuns, exploreSecs float64
	sampleDone, sampleSecs   float64
	trackedRate              []float64
	// Traced passes: per-layer sums.
	tracedPasses   int
	h              harnessTimes
	exploreSelf    time.Duration
	sampleSelf     time.Duration
	mallocs, bytes uint64
	engineRuns     int64
	dedup          explore.DedupStats
	exploreSkew    []float64
	sampleSkew     []float64
	frontier       []float64
	exactRuns      int64
	exactPruned    int64
	exactSteps     int64
	distinct       int64
}

func newCellBench(cells []cell, seed int64, workers int) *cellBench {
	return &cellBench{seed: seed, workers: workers, cells: cells}
}

func (b *cellBench) warmup() error {
	_, err := b.run(0, nil, false)
	return err
}

func (b *cellBench) pass(i int, tr *tracer) (passResult, error) {
	return b.run(i, tr, true)
}

// run executes pass i. Pass i orders the cells by a permutation drawn from
// (seed, i) and seeds its sampling cells with seed+i.
func (b *cellBench) run(i int, tr *tracer, record bool) (passResult, error) {
	var pr passResult
	order := rand.New(rand.NewPCG(uint64(b.seed), uint64(i))).Perm(len(b.cells))
	pid := tr.begin(fmt.Sprintf("pass %d", i), 0, "")
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	results := make([]callResult, len(b.cells))
	start := time.Now()
	for _, k := range order {
		r, err := b.cells[k].call(b.seed+int64(i), b.workers, tr, pid)
		pr.attempted++
		if err != nil {
			pr.failed++
			tr.end(pid)
			return pr, err
		}
		results[k] = r
		pr.verdicts = append(pr.verdicts, ms(r.dur))
	}
	pr.dur = time.Since(start)
	tr.end(pid)
	if !record {
		return pr, nil
	}
	if tr == nil {
		b.recordRates(results)
		return pr, nil
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.mallocs += after.Mallocs - before.Mallocs
	b.bytes += after.TotalAlloc - before.TotalAlloc
	b.recordLayers(results)
	return pr, nil
}

func (b *cellBench) recordRates(results []callResult) {
	for k, r := range results {
		c := b.cells[k]
		if c.strategy != "" {
			b.sampleDone += float64(r.sst.Samples)
			b.sampleSecs += r.sst.Elapsed.Seconds()
			continue
		}
		b.exploreRuns += float64(r.est.Runs)
		b.exploreSecs += r.est.Elapsed.Seconds()
		if c.tracked {
			b.trackedRate = append(b.trackedRate, r.est.RunsPerSec())
		}
	}
}

func (b *cellBench) recordLayers(results []callResult) {
	first := b.tracedPasses == 0
	b.tracedPasses++
	frontier := 0.0
	for k, r := range results {
		c := b.cells[k]
		b.h.add(r.h)
		busy, outside := r.busy()
		self := busy - time.Duration(r.h.closureNS())
		if c.strategy != "" {
			b.sampleSelf += self
			b.engineRuns += int64(r.sst.Samples)
			b.dedup = addDedup(b.dedup, r.sst.Coverage)
			b.sampleSkew = append(b.sampleSkew, r.skew())
			if first {
				b.distinct += r.sst.Distinct
				b.exactSteps += r.h.steps.Load()
			}
			continue
		}
		b.exploreSelf += self
		b.engineRuns += int64(r.est.Runs)
		b.dedup = addDedup(b.dedup, r.est.Dedup)
		if c.parallel {
			b.exploreSkew = append(b.exploreSkew, r.skew())
			frontier += outside.Seconds()
		} else if first {
			b.exactRuns += int64(r.est.Runs)
			b.exactPruned += int64(r.est.Pruned)
			b.exactSteps += r.h.steps.Load()
		}
	}
	b.frontier = append(b.frontier, frontier)
}

func addDedup(a, b explore.DedupStats) explore.DedupStats {
	a.Lookups += b.Lookups
	a.Hits += b.Hits
	a.States += b.States
	a.Evictions += b.Evictions
	return a
}

func (b *cellBench) report(m metrics) {
	m.set("explore.runs_per_sec", ratio(b.exploreRuns, b.exploreSecs))
	m.set("sample.samples_per_sec", ratio(b.sampleDone, b.sampleSecs))
	m.set("explore.tracked_runs_per_sec", median(b.trackedRate))
	if b.tracedPasses == 0 {
		return
	}
	passes := float64(b.tracedPasses)
	m.set("explore.self_s", b.exploreSelf.Seconds()/passes)
	m.set("sample.self_s", b.sampleSelf.Seconds()/passes)
	steps := float64(b.h.steps.Load())
	m.set("sched.ns_per_step", ratio(float64(b.exploreSelf+b.sampleSelf), steps))
	m.set("explore.allocs_per_run", ratio(float64(b.mallocs), float64(b.engineRuns)))
	m.set("explore.bytes_per_run", ratio(float64(b.bytes), float64(b.engineRuns)))
	m.set("explore.runs", float64(b.exactRuns))
	m.set("explore.pruned", float64(b.exactPruned))
	m.set("sched.steps", float64(b.exactSteps))
	m.set("explore.worker_skew", median(b.exploreSkew))
	m.set("sample.worker_skew", median(b.sampleSkew))
	m.set("explore.frontier_s", median(b.frontier))
	m.set("sessions.make_ns", ratio(float64(b.h.makeNS.Load()), float64(b.h.makeN.Load())))
	m.set("sessions.check_ns", ratio(float64(b.h.checkNS.Load()), float64(b.h.checkN.Load())))
	m.set("sessions.check_calls", float64(b.h.checkN.Load())/passes)
	m.set("sessions.fingerprint_ns", ratio(float64(b.h.fpNS.Load()), float64(b.h.fpN.Load())))
	m.set("sessions.fingerprint_calls", float64(b.h.fpN.Load())/passes)
	m.set("dedup.lookups", float64(b.dedup.Lookups)/passes)
	m.set("dedup.hit_ratio", ratio(float64(b.dedup.Hits), float64(b.dedup.Lookups)))
	m.set("dedup.states", float64(b.dedup.States)/passes)
	m.set("dedup.evictions", float64(b.dedup.Evictions)/passes)
	m.set("sample.distinct", float64(b.distinct))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
