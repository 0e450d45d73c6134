// Package sample is the probabilistic complement of the exhaustive explorer:
// instead of enumerating every decision sequence of a bounded configuration,
// it draws seeded random root-to-leaf paths of the same decision tree and
// checks the property on each sampled run. Where exhaustive exploration
// proves, sampling searches — it is the entry point into state spaces the
// walker cannot enumerate (the BG simulation, large ASM(n, t, x) cells).
//
// The engine runs on the same substrate as internal/explore: an
// explore.Session harness (Make/Check/Fingerprint) replayed on a reusable
// sched.Session runtime. Per sampled run, a Sampler strategy picks one
// alternative at every decision node; the alternative sets are exactly the
// exhaustive explorer's (every runnable process may run or — while the crash
// budget lasts — crash), so every sampled run is one path of the exhaustive
// tree and sampled outcomes are always a subset of the exhaustive outcome
// set (the soundness obligation spectest enforces).
//
// Three strategies ship behind the Sampler interface (strategy.go):
//
//   - walk: uniform random walk with down-weighted crash injection;
//   - pct: Probabilistic Concurrency Testing — random process priorities
//     with d-1 randomly placed priority-change points, carrying the classic
//     1/(n*k^(d-1)) depth-d bug-finding bound (surfaced as Stats.PCTBound);
//   - swarm: per-run mixing of walk and PCT-with-random-depth.
//
// Reproducibility: sample i's decisions are a pure function of (Config.Seed,
// i) — workers only change which goroutine draws which index, never what a
// given index draws. A property violation surfaces as the same
// explore.PropertyError the exhaustive engine prints (run/crash script
// included), wrapped around a SampleError naming the (seed, index) pair; the
// Replay entry point re-executes exactly that sample.
//
// Coverage: with Config.Coverage, every decision boundary of every sampled
// run is fingerprinted (sched control points + observation digests + the
// harness Session.Fingerprint when present) and offered to a bounded
// explore.VisitedStore; the insert count estimates the number of distinct
// canonical states the sample stream has touched, and Stats.Series records
// its growth — the saturation curve that tells "keep sampling" apart from
// "the stream is re-treading known states".
package sample

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpcn/internal/explore"
	"mpcn/internal/sched"
)

// DefaultMaxSteps bounds sampled runs when Config.MaxSteps is zero — the
// same default as the exhaustive explorer, so sampled and exhaustive runs of
// one spec see identical budgets (outcome-set containment depends on it).
const DefaultMaxSteps = 4096

// Config bounds a sampling run.
type Config struct {
	// Samples is the number of runs to draw (required, > 0).
	Samples int
	// Seed is the base seed of the schedule stream: sample i's decisions are
	// a pure function of (Seed, i).
	Seed int64
	// MaxCrashes bounds the crashes injected per run (0 = crash-free).
	MaxCrashes int
	// MaxSteps bounds each run (0 = DefaultMaxSteps); runs hitting it reach
	// the checker with BudgetExhausted set, exactly as under exploration.
	MaxSteps int
	// Depth is the PCT depth d — d-1 priority-change points per run (0 =
	// DefaultDepth). The walk strategy ignores it; swarm mixes up to it.
	Depth int
	// Workers sets the worker-pool size of RunParallel (ignored by Run;
	// <= 0 selects explore.DefaultWorkers).
	Workers int
	// Coverage enables the distinct-state estimator: every decision boundary
	// is fingerprinted into a bounded VisitedStore (Stats.Distinct,
	// Stats.Series). It works with or without a Session.Fingerprint —
	// without one the digest covers the sched-level state only (control
	// points + observation digests), which can merge states the harness
	// distinguishes (under-counting), while store eviction re-counts
	// re-discovered states (over-counting): a diagnostic estimate in both
	// directions, never a checker input.
	Coverage bool
	// CoverageMem is the estimator store's memory ceiling in bytes (0 =
	// explore.DefaultDedupMem), grown into on demand rather than allocated
	// up front; CoverageShards its lock stripes.
	CoverageMem    int
	CoverageShards int
	// Checkpoints is the number of Stats.Series points recorded across the
	// sample budget (0 = 8; < 0 disables the series).
	Checkpoints int
	// OnSample, when non-nil, receives every completed passing sample's
	// index and decision script. Under RunParallel it is called concurrently
	// from the worker goroutines; callers synchronize. Rendering scripts
	// allocates, so leave it nil on throughput-sensitive runs.
	OnSample func(sample int, script []string)
	// Progress, when non-nil, is updated live while the job runs: workers
	// add every completed sample and the coverage store (under Coverage) is
	// attached for counter snapshots — the surface the exploredd daemon's
	// progress stream polls.
	Progress *Progress
	// Runtime, when non-nil, supplies and reclaims the workers' sched
	// runtimes instead of NewSessionWith/Close, letting long-running drivers
	// lease warm sessions across jobs.
	Runtime explore.RuntimeSource
}

func (c Config) withDefaults() Config {
	if c.MaxSteps <= 0 {
		c.MaxSteps = DefaultMaxSteps
	}
	if c.Workers <= 0 {
		c.Workers = explore.DefaultWorkers()
	}
	if c.Checkpoints == 0 {
		c.Checkpoints = 8
	}
	return c
}

// CoveragePoint is one checkpoint of the distinct-state growth curve.
type CoveragePoint struct {
	// Samples is the number of completed samples at the checkpoint.
	Samples int `json:"samples"`
	// States is the estimator's distinct-state count at the checkpoint.
	States int64 `json:"states"`
}

// WorkerStats reports one parallel worker's share of a sampling run.
type WorkerStats struct {
	Worker  int
	Samples int
	Busy    time.Duration
}

// Stats summarizes a sampling run.
type Stats struct {
	// Strategy is the sampler's name.
	Strategy string
	// Samples is the number of completed sampled runs.
	Samples int
	// MaxDepth is the deepest decision sequence drawn.
	MaxDepth int
	// Procs is the harness's process count (the n of PCTBound).
	Procs int
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
	// Distinct is the estimated distinct-state count (0 unless
	// Config.Coverage; exact until the store's first eviction).
	Distinct int64
	// Coverage holds the estimator store's full counters.
	Coverage explore.DedupStats
	// Series is the distinct-state growth curve at Config.Checkpoints
	// checkpoints (nil unless Config.Coverage).
	Series []CoveragePoint
	// PCTBound is the classic PCT guarantee for this run set: a depth-d bug
	// is caught per run with probability >= PCTBound = 1/(n * k^(d-1)), with
	// n the process count, d the configured depth and k the step range the
	// priority-change points were placed over — Config.MaxSteps, NOT the
	// (possibly much smaller) observed run depth: the bound only holds for
	// the k that governed placement, so tightening MaxSteps toward the
	// scenario's real depth sharpens both the placement and the bound. Zero
	// for strategies without the bound (walk, swarm).
	PCTBound float64
	// Workers holds the per-worker breakdown of RunParallel (nil for Run).
	Workers []WorkerStats
}

// SamplesPerSec is the sampling throughput.
func (s Stats) SamplesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Samples) / s.Elapsed.Seconds()
}

// SampleError tags a property violation with the (seed, index) pair that
// reproduces it; it sits between the explore.PropertyError (which carries
// the decision script) and the checker's error.
type SampleError struct {
	// Sample is the violating sample's index; Seed the base seed; Strategy
	// the sampler name. Replay(s, Strategy, cfg-with-Seed, Sample) re-runs it.
	Sample   int
	Seed     int64
	Strategy string
	Err      error
}

// Error implements error.
func (e *SampleError) Error() string {
	return fmt.Sprintf("sample %d (seed %d, strategy %s): %v", e.Sample, e.Seed, e.Strategy, e.Err)
}

// Unwrap exposes the checker's error.
func (e *SampleError) Unwrap() error { return e.Err }

// runSeed derives sample i's private seed from the base seed. sched.Mix is a
// full-avalanche finalizer, so consecutive indices yield decorrelated
// streams.
func runSeed(seed int64, i int) uint64 {
	return sched.Mix(uint64(seed) ^ sched.Mix(uint64(i)+rngGolden))
}

// adversary is the sampling sched.Adversary: it enumerates the exhaustive
// explorer's alternative set at every decision node, asks the strategy to
// pick one, and records the choice sequence as the run's script. One
// instance is reused across a worker's samples.
type adversary struct {
	strategy   Sampler
	maxCrashes int
	crashes    int
	choices    []Choice
	altsBuf    []Choice
	// victim backs the crash list of a crash decision: the runtime reads
	// it before it consults the adversary again, so one array serves every
	// crash, where sched.CrashDecision would allocate one per crash.
	victim [1]sched.ProcID

	// Coverage fields (nil store = estimator off). fp is the reusable
	// accumulator: a local would escape through the indirect fpFn call and
	// be heap-allocated at every decision boundary. lookups counts the run's
	// store visits, published to the store at the run boundary.
	store   *explore.VisitedStore
	fpFn    func(*sched.FP)
	fp      sched.FP
	lookups int64
}

var _ sched.Adversary = (*adversary)(nil)

func (a *adversary) reset() {
	a.crashes = 0
	a.choices = a.choices[:0]
}

// fingerprint digests the canonical state at the current decision boundary:
// per-process control points and observation digests (as the exhaustive
// walker's dedup fingerprint, minus its POR context), plus the harness
// digest when the session carries one.
func (a *adversary) fingerprint(v *sched.View) sched.Fingerprint {
	h := &a.fp
	h.Reset()
	h.ControlPoints(v)
	if a.fpFn != nil {
		a.fpFn(h)
	}
	return h.Sum()
}

// Next implements sched.Adversary.
func (a *adversary) Next(v sched.View) sched.Decision {
	if a.store != nil {
		a.lookups++
		a.store.Visit(a.fingerprint(&v))
	}
	alts := a.altsBuf[:0]
	for _, id := range v.Runnable {
		alts = append(alts, Choice{Proc: id, Label: v.Pending[id]})
	}
	if a.crashes < a.maxCrashes {
		for _, id := range v.Runnable {
			alts = append(alts, Choice{Crash: true, Proc: id, Label: v.Pending[id]})
		}
	}
	a.altsBuf = alts
	idx := a.strategy.Pick(v, alts)
	if idx < 0 || idx >= len(alts) {
		panic(fmt.Sprintf("sample: strategy %s picked alternative %d of %d", a.strategy.Name(), idx, len(alts)))
	}
	c := alts[idx]
	a.choices = append(a.choices, c)
	if c.Crash {
		a.crashes++
		a.victim[0] = c.Proc
		return sched.Decision{Run: -1, Crash: a.victim[:]}
	}
	return sched.RunDecision(c.Proc)
}

// script renders the recorded choice sequence in the exhaustive engine's
// replay-script syntax.
func (a *adversary) script() []string {
	out := make([]string, len(a.choices))
	for i, c := range a.choices {
		out[i] = c.String()
	}
	return out
}

// worker owns one sampling lane: a reusable runtime, a reusable adversary, a
// private strategy instance, and the lane's counters.
type worker struct {
	cfg      Config
	session  explore.Session
	strategy Sampler
	store    *explore.VisitedStore

	rt  *sched.Session
	adv *adversary

	samples  int
	maxDepth int
	n        int // process count, learned from the first Make
	lastRes  *sched.Result
}

func (w *worker) close() {
	if w.rt == nil {
		return
	}
	if w.cfg.Runtime != nil {
		w.cfg.Runtime.Release(w.rt)
	} else {
		w.rt.Close()
	}
	w.rt = nil
}

// retire ends the worker: it closes the runtime and unhooks the pooled
// adversary from the coverage store, which a runtime kept warm by a
// RuntimeSource would otherwise hold through its last adversary.
func (w *worker) retire() {
	w.close()
	if w.adv != nil {
		w.adv.store = nil
	}
}

// acquire obtains a runtime for n processes, from the configured
// RuntimeSource when one is set. Sampling strategies decide step by step (no
// batched grants), but the direct protocol consults them in place when a
// process parks, so a pick that re-grants the running process costs no
// token handoff at all.
func (w *worker) acquire(n int) (*sched.Session, error) {
	if w.cfg.Runtime != nil {
		return w.cfg.Runtime.Acquire(n)
	}
	return sched.NewSession(n)
}

// sampleOne draws, executes and checks sample index i. The run's pooled
// Result is left in w.lastRes (valid until the next sample or close).
func (w *worker) sampleOne(i int) error {
	bodies := w.session.Make()
	w.n = len(bodies)
	if w.adv == nil {
		w.adv = &adversary{strategy: w.strategy, maxCrashes: w.cfg.MaxCrashes, store: w.store, fpFn: w.session.Fingerprint}
	}
	w.adv.reset()
	var err error
	if w.rt == nil || w.rt.N() != len(bodies) {
		w.close()
		w.rt, err = w.acquire(len(bodies))
		if err != nil {
			return fmt.Errorf("%w: %v", explore.ErrRunFailed, err)
		}
	}
	w.strategy.Reset(runSeed(w.cfg.Seed, i), len(bodies), w.cfg.MaxSteps, w.cfg.MaxCrashes)
	res, err := w.rt.Run(sched.Config{
		Adversary: w.adv,
		MaxSteps:  w.cfg.MaxSteps,
		Observe:   w.store != nil,
	}, bodies)
	if w.store != nil {
		w.store.AddLookups(w.adv.lookups)
		w.adv.lookups = 0
	}
	if err != nil {
		return fmt.Errorf("%w: %v (sample %d, schedule %v)", explore.ErrRunFailed, err, i, w.adv.script())
	}
	w.samples++
	w.cfg.Progress.add(1)
	w.lastRes = res
	if d := len(w.adv.choices); d > w.maxDepth {
		w.maxDepth = d
	}
	if cerr := w.session.Check(res); cerr != nil {
		return &explore.PropertyError{
			Script: w.adv.script(),
			Err:    &SampleError{Sample: i, Seed: w.cfg.Seed, Strategy: w.strategy.Name(), Err: cerr},
		}
	}
	if w.cfg.OnSample != nil {
		w.cfg.OnSample(i, w.adv.script())
	}
	return nil
}

// pctBound computes the PCT depth-d guarantee 1/(n * k^(d-1)).
func pctBound(n, k, d int) float64 {
	if n <= 0 || k <= 0 {
		return 0
	}
	b := 1.0 / float64(n)
	for i := 1; i < d; i++ {
		b /= float64(k)
	}
	return b
}

// checkpoints tracks the coverage series across workers: the worker crossing
// a checkpoint boundary snapshots the store.
type checkpoints struct {
	mu     sync.Mutex
	every  int
	total  int
	store  *explore.VisitedStore
	done   atomic.Int64
	series []CoveragePoint
}

func newCheckpoints(cfg Config, store *explore.VisitedStore) *checkpoints {
	if store == nil || cfg.Checkpoints < 0 {
		return nil
	}
	every := cfg.Samples / cfg.Checkpoints
	if every < 1 {
		every = 1
	}
	return &checkpoints{every: every, total: cfg.Samples, store: store}
}

// completed records one finished sample and snapshots the store at
// checkpoint boundaries. The snapshot happens under the mutex and a
// checkpoint that lost the race to a later one is dropped, so the series is
// strictly monotone in both coordinates even when parallel workers cross
// boundaries out of order (the states count of a kept point may include
// inserts from concurrently running samples — the curve is an estimate
// sampled in wall-clock order, which is the order that makes it monotone).
func (c *checkpoints) completed() {
	if c == nil {
		return
	}
	n := int(c.done.Add(1))
	if n%c.every != 0 && n != c.total {
		return
	}
	c.mu.Lock()
	if len(c.series) == 0 || n > c.series[len(c.series)-1].Samples {
		c.series = append(c.series, CoveragePoint{Samples: n, States: c.store.Stats().States})
	}
	c.mu.Unlock()
}

// validate rejects unusable configs before any goroutine or store spins up.
func validate(cfg Config) error {
	if cfg.Samples <= 0 {
		return errors.New("sample: Config.Samples must be positive")
	}
	return nil
}

// newStore builds the coverage estimator store (nil when Coverage is off).
func newStore(cfg Config) *explore.VisitedStore {
	if !cfg.Coverage {
		return nil
	}
	return explore.NewVisitedStore(cfg.CoverageMem, cfg.CoverageShards)
}

// finish assembles the Stats shared by Run and RunParallel.
func finish(cfg Config, name string, samples, maxDepth, n int, start time.Time, store *explore.VisitedStore, cps *checkpoints) Stats {
	st := Stats{
		Strategy: name,
		Samples:  samples,
		MaxDepth: maxDepth,
		Procs:    n,
		Elapsed:  time.Since(start),
	}
	if store != nil {
		st.Coverage = store.Stats()
		st.Distinct = st.Coverage.States
	}
	if cps != nil {
		cps.mu.Lock()
		st.Series = append([]CoveragePoint(nil), cps.series...)
		cps.mu.Unlock()
	}
	if name == StrategyPCT {
		d := cfg.Depth
		if d <= 0 {
			d = DefaultDepth
		}
		st.PCTBound = pctBound(n, cfg.MaxSteps, d)
	}
	return st
}

// RunWith draws cfg.Samples runs of s sequentially, driving decisions with
// the sampler mk builds. Sampling stops at the first property violation
// (returned as an explore.PropertyError wrapping a SampleError) or runtime
// failure; a clean return means every drawn run passed the checker.
func RunWith(s explore.Session, mk func() Sampler, cfg Config) (Stats, error) {
	return RunWithContext(context.Background(), s, mk, cfg)
}

// RunWithContext is RunWith under a context: cancelling ctx stops the draw at
// the next sample boundary and returns ctx's error with the Stats accumulated
// so far.
func RunWithContext(ctx context.Context, s explore.Session, mk func() Sampler, cfg Config) (Stats, error) {
	cfg = cfg.withDefaults()
	if err := validate(cfg); err != nil {
		return Stats{}, err
	}
	start := time.Now()
	store := newStore(cfg)
	cfg.Progress.attach(store)
	defer cfg.Progress.detach()
	cps := newCheckpoints(cfg, store)
	w := &worker{cfg: cfg, session: s, strategy: mk(), store: store}
	defer w.retire()
	var err error
	for i := 0; i < cfg.Samples; i++ {
		if err = ctx.Err(); err != nil {
			break
		}
		if err = w.sampleOne(i); err != nil {
			break
		}
		cps.completed()
	}
	return finish(cfg, w.strategy.Name(), w.samples, w.maxDepth, w.n, start, store, cps), err
}

// Run is RunWith over a built-in strategy name ("walk", "pct", "swarm").
func Run(s explore.Session, strategy string, cfg Config) (Stats, error) {
	return RunContext(context.Background(), s, strategy, cfg)
}

// RunContext is Run under a context (see RunWithContext).
func RunContext(ctx context.Context, s explore.Session, strategy string, cfg Config) (Stats, error) {
	mk, err := factory(strategy, cfg.Depth)
	if err != nil {
		return Stats{}, err
	}
	return RunWithContext(ctx, s, mk, cfg)
}

// factory validates the strategy name once and returns a per-worker
// constructor.
func factory(strategy string, depth int) (func() Sampler, error) {
	if _, err := New(strategy, depth); err != nil {
		return nil, err
	}
	return func() Sampler {
		s, _ := New(strategy, depth)
		return s
	}, nil
}

// RunParallelWith is RunWith sharded across cfg.Workers workers. Workers
// claim sample indices from a shared counter, so the drawn sample set is the
// same one the sequential engine draws — sample i's decisions depend only on
// (Config.Seed, i) — while the violation sink and the coverage store are
// shared: the first violation stops the pool, and when several workers find
// one concurrently the smallest sample index wins (the closest the pool can
// get to the sequential engine's first-violation report; which violation
// surfaces on a given wall clock remains timing-dependent, exactly like the
// parallel exhaustive explorer's counterexample choice). newSession is
// called once per worker; every returned Session must own independent run
// state. A checker panic in any worker is re-raised on the caller's
// goroutine.
func RunParallelWith(newSession func() explore.Session, mk func() Sampler, cfg Config) (Stats, error) {
	return RunParallelWithContext(context.Background(), newSession, mk, cfg)
}

// RunParallelWithContext is RunParallelWith under a context: cancelling ctx
// halts every worker at its next sample boundary and the run returns ctx's
// error (a violation a worker found before the halt outranks it) with the
// Stats accumulated so far.
func RunParallelWithContext(ctx context.Context, newSession func() explore.Session, mk func() Sampler, cfg Config) (Stats, error) {
	if newSession == nil {
		panic("sample: RunParallelWith needs a session factory")
	}
	cfg = cfg.withDefaults()
	if err := validate(cfg); err != nil {
		return Stats{}, err
	}
	start := time.Now()
	store := newStore(cfg)
	cfg.Progress.attach(store)
	defer cfg.Progress.detach()
	cps := newCheckpoints(cfg, store)

	nw := cfg.Workers
	if nw > cfg.Samples {
		nw = cfg.Samples
	}
	var next atomic.Int64
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	// Relay ctx cancellation into the pool's halt signal; the relay exits
	// when the workers drain (watchDone) so it never leaks.
	watchDone := make(chan struct{})
	defer close(watchDone)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				halt()
			case <-watchDone:
			}
		}()
	}

	type workerOut struct {
		ws       WorkerStats
		maxDepth int
		n        int
		errAt    int // sample index of err; -1 = none
		err      error
		panicked any
	}
	outs := make([]workerOut, nw)
	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			t0 := time.Now()
			out := &outs[k]
			out.ws.Worker = k
			out.errAt = -1
			w := &worker{cfg: cfg, session: newSession(), strategy: mk(), store: store}
			defer func() {
				out.ws.Busy = time.Since(t0)
				out.ws.Samples = w.samples
				out.maxDepth = w.maxDepth
				out.n = w.n
				w.retire()
				if r := recover(); r != nil {
					out.panicked = r
					halt()
				}
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= cfg.Samples {
					return
				}
				if err := w.sampleOne(i); err != nil {
					out.err = err
					out.errAt = i
					halt()
					return
				}
				cps.completed()
			}
		}(k)
	}
	wg.Wait()

	samples, maxDepth, n := 0, 0, 0
	var firstErr error
	firstAt := -1
	workers := make([]WorkerStats, 0, nw)
	for k := range outs {
		o := &outs[k]
		if o.panicked != nil {
			panic(fmt.Sprintf("sample: checker panicked in worker %d: %v", k, o.panicked))
		}
		samples += o.ws.Samples
		if o.maxDepth > maxDepth {
			maxDepth = o.maxDepth
		}
		if o.n > n {
			n = o.n
		}
		workers = append(workers, o.ws)
		if o.err != nil && (firstAt < 0 || o.errAt < firstAt) {
			firstErr, firstAt = o.err, o.errAt
		}
	}
	if firstErr == nil {
		// A worker's violation outranks the cancellation that may have raced
		// with it; a clean halt with a cancelled ctx reports the cancellation.
		firstErr = ctx.Err()
	}
	st := finish(cfg, mk().Name(), samples, maxDepth, n, start, store, cps)
	st.Workers = workers
	return st, firstErr
}

// RunParallel is RunParallelWith over a built-in strategy name.
func RunParallel(newSession func() explore.Session, strategy string, cfg Config) (Stats, error) {
	return RunParallelContext(context.Background(), newSession, strategy, cfg)
}

// RunParallelContext is RunParallel under a context (see
// RunParallelWithContext).
func RunParallelContext(ctx context.Context, newSession func() explore.Session, strategy string, cfg Config) (Stats, error) {
	mk, err := factory(strategy, cfg.Depth)
	if err != nil {
		return Stats{}, err
	}
	return RunParallelWithContext(ctx, newSession, mk, cfg)
}

// Replay re-executes sample index of the (strategy, cfg) stream and returns
// its decision script and a caller-owned copy of its Result; the checker
// runs, and a violation comes back as the same PropertyError sampling
// reported. This is the seeded reproducibility contract: for a SampleError
// e, Replay(s, e.Strategy, cfg-with-e.Seed, e.Sample) re-emits the
// byte-identical script.
func Replay(s explore.Session, strategy string, cfg Config, index int) ([]string, *sched.Result, error) {
	cfg = cfg.withDefaults()
	cfg.Coverage = false
	cfg.OnSample = nil
	cfg.Progress = nil
	if index < 0 {
		return nil, nil, fmt.Errorf("sample: negative replay index %d", index)
	}
	mk, err := factory(strategy, cfg.Depth)
	if err != nil {
		return nil, nil, err
	}
	w := &worker{cfg: cfg, session: s, strategy: mk()}
	defer w.close()
	err = w.sampleOne(index)
	var script []string
	if w.adv != nil {
		script = w.adv.script()
	}
	return script, copyResult(w.lastRes), err
}

// copyResult deep-copies a pooled Result so it survives the session.
func copyResult(r *sched.Result) *sched.Result {
	if r == nil {
		return nil
	}
	out := *r
	out.Outcomes = append([]sched.Outcome(nil), r.Outcomes...)
	out.Trace = append([]sched.TraceEntry(nil), r.Trace...)
	return &out
}
