// Package sample is the probabilistic complement of the exhaustive explorer:
// instead of enumerating every decision sequence of a bounded configuration,
// it draws seeded random root-to-leaf paths of the same decision tree and
// checks the property on each sampled run. Where exhaustive exploration
// proves, sampling searches — it is the entry point into state spaces the
// walker cannot enumerate (the BG simulation, large ASM(n, t, x) cells).
//
// The sampler is a choice policy on internal/explore's engine core, not an
// engine of its own: RunContext hands an explore.Session harness
// (Make/Check/Fingerprint) to explore.Pool, whose lanes lease and replay the
// sched runtimes, count progress and re-raise panics. Per sampled run, a
// Sampler strategy picks one alternative at every decision node; the
// alternatives come from explore.Alternatives, exactly the exhaustive
// explorer's (every runnable process may run or — while the crash budget
// lasts — crash), so every sampled run is one path of the exhaustive tree
// and sampled outcomes are always a subset of the exhaustive outcome set
// (the soundness obligation spectest enforces).
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
	// Workers sets the worker-pool size: 1 samples on one lane, the
	// sequential engine; <= 0 selects explore.DefaultWorkers.
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
	// index and decision script. With more than one worker it is called
	// concurrently from the worker goroutines; callers synchronize.
	// Rendering scripts allocates, so leave it nil on throughput-sensitive
	// runs.
	OnSample func(sample int, script []string)
	// Progress, when non-nil, is updated live while the job runs: workers
	// count every completed sample as a run and the coverage store (under
	// Coverage) is attached for counter snapshots — the surface the
	// exploredd daemon's progress stream polls.
	Progress *explore.Progress
	// Runtime, when non-nil, supplies and reclaims the workers' sched
	// runtimes instead of NewSession/Close, letting long-running drivers
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
	// Workers holds the per-worker breakdown; a worker's Runs are its
	// samples.
	Workers []explore.WorkerStats
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

// adversary is the sampling policy on one lane of the engine core: at every
// decision node it enumerates the exhaustive explorer's alternative set,
// asks the strategy to pick one, and records the choice sequence as the
// run's script. One instance serves all of a lane's samples.
type adversary struct {
	cfg      *Config
	lane     *explore.Lane
	strategy Sampler
	coverage bool // fingerprint every decision boundary into the lane's store

	seed    uint64 // the current sample's private seed
	fresh   bool   // the strategy is reset at the sample's first consultation
	n       int    // process count, learned at the first consultation
	crashes int
	choices []Choice
	altsBuf []Choice
	// victim backs the crash list of a crash decision: the runtime reads
	// it before it consults the adversary again, so one array serves every
	// crash, where sched.CrashDecision would allocate one per crash.
	victim [1]sched.ProcID
	// fp is the reusable coverage accumulator: a local would escape through
	// the indirect Fingerprint call and be heap-allocated at every decision
	// boundary.
	fp      sched.FP
	lastRes *sched.Result
}

var _ explore.Adversary = (*adversary)(nil)

func newAdversary(cfg *Config, strategy string, l *explore.Lane) *adversary {
	s, _ := New(strategy, cfg.Depth) // the name was validated by the entry point
	return &adversary{cfg: cfg, lane: l, strategy: s, coverage: cfg.Coverage}
}

// Choices implements explore.Adversary.
func (a *adversary) Choices() []Choice { return a.choices }

// fingerprint digests the canonical state at the current decision boundary:
// per-process control points and observation digests (as the exhaustive
// walker's dedup fingerprint, minus its POR context), plus the harness
// digest when the session carries one.
func (a *adversary) fingerprint(v *sched.View) sched.Fingerprint {
	h := &a.fp
	h.Reset()
	h.ControlPoints(v)
	if fp := a.lane.Session().Fingerprint; fp != nil {
		fp(h)
	}
	return h.Sum()
}

// Next implements sched.Adversary.
func (a *adversary) Next(v *sched.View) sched.Decision {
	if a.fresh {
		// The view is the first that shows the run's process count.
		a.fresh = false
		a.n = len(v.Pending)
		a.strategy.Reset(a.seed, a.n, a.cfg.MaxSteps, a.cfg.MaxCrashes)
	}
	if a.coverage {
		a.lane.Visit(a.fingerprint(v))
	}
	alts := explore.Alternatives(a.altsBuf[:0], v, a.crashes < a.cfg.MaxCrashes)
	a.altsBuf = alts
	idx := a.strategy.Pick(*v, alts)
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

// sample draws, executes and checks sample index i on the adversary's lane.
// The run's pooled Result is left in lastRes (valid until the lane's next
// run or its retirement).
func (a *adversary) sample(i int) error {
	a.seed = runSeed(a.cfg.Seed, i)
	a.fresh = true
	a.crashes = 0
	a.choices = a.choices[:0]
	res, err := a.lane.Run(a)
	if err != nil {
		return fmt.Errorf("sample %d: %w", i, err)
	}
	a.lastRes = res
	a.lane.Count(0, len(a.choices))
	if cerr := a.lane.Session().Check(res); cerr != nil {
		return &explore.PropertyError{
			Script: explore.Script(a.choices),
			Err:    &SampleError{Sample: i, Seed: a.cfg.Seed, Strategy: a.strategy.Name(), Err: cerr},
		}
	}
	if a.cfg.OnSample != nil {
		a.cfg.OnSample(i, explore.Script(a.choices))
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

// RunContext draws cfg.Samples runs of newSession's harness, driving
// decisions with the built-in strategy named strategy ("walk", "pct",
// "swarm"), on cfg.Workers lanes of the engine core's worker pool (one lane
// — the sequential engine — when Workers == 1). Workers claim sample
// indices from a shared counter, so the drawn sample set does not depend on
// the worker count: sample i's decisions depend only on (Config.Seed, i).
// newSession is called once per worker; every returned Session must own
// independent run state.
//
// Sampling stops at the first property violation (returned as an
// explore.PropertyError wrapping a SampleError) or runtime failure; when
// several workers find one concurrently the smallest sample index wins (the
// one the sequential engine reports; which violations a pool meets before
// it halts remains timing-dependent). A checker panic in any worker is
// re-raised on the caller's goroutine. A clean return means every drawn run
// passed the checker. Cancelling ctx stops every worker at its next sample
// boundary and returns ctx's error (a violation found before the halt
// outranks it) with the Stats accumulated so far.
func RunContext(ctx context.Context, newSession func() explore.Session, strategy string, cfg Config) (Stats, error) {
	if _, err := New(strategy, cfg.Depth); err != nil {
		return Stats{}, err
	}
	if newSession == nil {
		panic("sample: RunContext needs a session factory")
	}
	cfg = cfg.withDefaults()
	if cfg.Samples <= 0 {
		return Stats{}, errors.New("sample: Config.Samples must be positive")
	}
	start := time.Now()
	var store *explore.VisitedStore
	if cfg.Coverage {
		store = newCoverageStore(cfg.CoverageMem, cfg.CoverageShards)
	}
	cps := newCheckpoints(cfg, store)
	sessions := make([]explore.Session, min(cfg.Workers, cfg.Samples))
	for i := range sessions {
		sessions[i] = newSession()
	}
	advs := make([]*adversary, len(sessions))
	core := explore.Config{MaxSteps: cfg.MaxSteps, Runtime: cfg.Runtime, Progress: cfg.Progress}
	ps, err := explore.Pool(ctx, core, sessions, store, cfg.Samples, func(k int, l *explore.Lane) func(int) error {
		a := newAdversary(&cfg, strategy, l)
		advs[k] = a
		return func(i int) error {
			if err := a.sample(i); err != nil {
				return err
			}
			cps.completed()
			return nil
		}
	})
	st := Stats{
		Strategy: strategy,
		Samples:  ps.Runs,
		MaxDepth: ps.MaxDepth,
		Elapsed:  time.Since(start),
		Workers:  ps.Workers,
	}
	for _, a := range advs {
		if a != nil {
			st.Procs = max(st.Procs, a.n)
		}
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
	if strategy == StrategyPCT {
		d := cfg.Depth
		if d <= 0 {
			d = DefaultDepth
		}
		st.PCTBound = pctBound(st.Procs, cfg.MaxSteps, d)
	}
	return st, err
}

// newCoverageStore builds a run's coverage store; a variable so the
// package's tests can watch the store a run creates.
var newCoverageStore = explore.NewVisitedStore

// RunParallel is RunContext under no context.
func RunParallel(newSession func() explore.Session, strategy string, cfg Config) (Stats, error) {
	return RunContext(context.Background(), newSession, strategy, cfg)
}

// Replay re-executes sample index of the (strategy, cfg) stream and returns
// its decision script and a caller-owned copy of its Result; the checker
// runs, and a violation comes back as the same PropertyError sampling
// reported. This is the seeded reproducibility contract: for a SampleError
// e, Replay(s, e.Strategy, cfg-with-e.Seed, e.Sample) re-emits the
// byte-identical script.
func Replay(s explore.Session, strategy string, cfg Config, index int) ([]string, *sched.Result, error) {
	if index < 0 {
		return nil, nil, fmt.Errorf("sample: negative replay index %d", index)
	}
	if _, err := New(strategy, cfg.Depth); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults()
	cfg.Coverage = false
	cfg.OnSample = nil
	var script []string
	var res *sched.Result
	core := explore.Config{MaxSteps: cfg.MaxSteps, Runtime: cfg.Runtime}
	_, err := explore.Pool(context.Background(), core, []explore.Session{s}, nil, 1, func(_ int, l *explore.Lane) func(int) error {
		a := newAdversary(&cfg, strategy, l)
		return func(int) error {
			err := a.sample(index)
			script, res = explore.Script(a.choices), copyResult(a.lastRes)
			return err
		}
	})
	return script, res, err
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
