// The sampling strategies: uniform random walk, PCT (Probabilistic
// Concurrency Testing) and swarm-style strategy mixing, all behind the
// Sampler interface. Strategies own no shared state: the engine resets one
// instance per run with a seed derived from (Config.Seed, sample index), so
// a sample's decision sequence is a pure function of that pair — the
// reproducibility contract Replay relies on.

package sample

import (
	"fmt"
	"sort"

	"mpcn/internal/explore"
	"mpcn/internal/sched"
)

// Choice is one decision alternative at a sampling node: the engine core's
// explore.Choice. The alternative set at every node is exactly the
// exhaustive explorer's (explore.Alternatives), so any sampled run
// corresponds to one root-to-leaf path of the exhaustive decision tree, and
// its script renders in the same syntax.
type Choice = explore.Choice

// Sampler picks the decisions of one sampled run. Implementations must be
// deterministic functions of the Reset seed and the views they observe —
// no global randomness, no time — so that a (seed, sample index) pair always
// reproduces the identical run script.
type Sampler interface {
	// Name identifies the strategy ("walk", "pct", "swarm") in stats and
	// error chains.
	Name() string
	// Reset prepares the sampler for one run: the run's private seed, the
	// process count, the per-run step budget and the crash budget.
	Reset(seed uint64, n, maxSteps, maxCrashes int)
	// Pick returns the index of the chosen alternative, 0 <= idx < len(alts).
	// alts always contains at least one run choice; the slice is owned by the
	// engine and only valid for the duration of the call.
	Pick(v sched.View, alts []Choice) int
}

// Strategy names accepted by New (and the -sample CLI flag).
const (
	StrategyWalk  = "walk"
	StrategyPCT   = "pct"
	StrategySwarm = "swarm"
)

// Strategies lists the built-in strategy names.
func Strategies() []string {
	return []string{StrategyPCT, StrategySwarm, StrategyWalk}
}

// New constructs a built-in sampler by name. depth is the PCT depth d (d-1
// priority-change points; <= 0 selects DefaultDepth); walk ignores it, swarm
// uses it as the upper bound of its per-run depth mix.
func New(name string, depth int) (Sampler, error) {
	if depth <= 0 {
		depth = DefaultDepth
	}
	switch name {
	case StrategyWalk:
		return &walkS{}, nil
	case StrategyPCT:
		return &pctS{d: depth}, nil
	case StrategySwarm:
		return &swarmS{maxDepth: depth}, nil
	default:
		return nil, fmt.Errorf("sample: unknown strategy %q (available: walk, pct, swarm)", name)
	}
}

// DefaultDepth is the PCT depth d when a config leaves it at zero: bugs of
// depth <= 3 (two ordering constraints) cover the common races.
const DefaultDepth = 3

// ---------------------------------------------------------------------------
// Seeded randomness: splitmix64, self-contained so the sampled schedule
// stream is stable across Go releases (math/rand makes no such promise).

const (
	rngGolden = 0x9e3779b97f4a7c15
	rngM1     = 0xbf58476d1ce4e5b9
	rngM2     = 0x94d049bb133111eb
)

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += rngGolden
	z := r.s
	z = (z ^ (z >> 30)) * rngM1
	z = (z ^ (z >> 27)) * rngM2
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is negligible for the
// small n of scheduling decisions.
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// ---------------------------------------------------------------------------
// Uniform random walk.

// walkS samples one root-to-leaf path: at each node it picks a uniformly
// random run alternative, diverting to a uniformly random crash alternative
// with probability 1/8 while the crash budget lasts. (Uniform choice over
// ALL alternatives would crash half the time at every node and oversample
// early-crash prefixes; the down-weighting keeps crash-free interleaving
// diversity the common case while still exercising every crash point.)
type walkS struct {
	rng rng
}

func (w *walkS) Name() string { return StrategyWalk }

func (w *walkS) Reset(seed uint64, n, maxSteps, maxCrashes int) {
	w.rng = rng{s: seed}
}

func (w *walkS) Pick(v sched.View, alts []Choice) int {
	runs := len(alts)
	for runs > 0 && alts[runs-1].Crash {
		runs--
	}
	if runs < len(alts) && w.rng.intn(8) == 0 {
		return runs + w.rng.intn(len(alts)-runs)
	}
	return w.rng.intn(runs)
}

// ---------------------------------------------------------------------------
// PCT: Probabilistic Concurrency Testing (Burckhardt et al., ASPLOS 2010).

// pctS schedules by random process priorities with d-1 randomly placed
// priority-change points: the highest-priority runnable process runs until a
// change point demotes it below everyone else. For a bug of depth d (one
// requiring d ordering constraints) in a run of n processes and at most k
// steps, a single PCT run triggers it with probability >= 1/(n * k^(d-1)) —
// the bound Stats.PCTBound surfaces with the observed k.
//
// Crashes are injected the same way the priorities are perturbed: up to
// maxCrashes crash points are placed uniformly over the step range, and at
// each the currently top-priority runnable process is crashed (the process
// "dies mid-operation" exactly where it would otherwise have run).
type pctS struct {
	d int

	rng      rng
	prio     []int // prio[p] = priority of process p; higher runs first
	floor    int   // next demotion priority (decreasing, below all initial)
	changeAt []int // ascending step indices of the d-1 priority changes
	crashAt  []int // ascending step indices of the crash injections
	nextCh   int
	nextCr   int
}

func (p *pctS) Name() string { return StrategyPCT }

func (p *pctS) Reset(seed uint64, n, maxSteps, maxCrashes int) {
	p.rng = rng{s: seed}
	p.prio = resizeInts(p.prio, n)
	for i := range p.prio {
		p.prio[i] = i + 1
	}
	// Fisher-Yates over the initial priorities.
	for i := n - 1; i > 0; i-- {
		j := p.rng.intn(i + 1)
		p.prio[i], p.prio[j] = p.prio[j], p.prio[i]
	}
	p.floor = 0
	p.changeAt = samplePoints(&p.rng, p.changeAt[:0], p.d-1, maxSteps)
	p.crashAt = samplePoints(&p.rng, p.crashAt[:0], maxCrashes, maxSteps)
	p.nextCh, p.nextCr = 0, 0
}

// samplePoints draws k step indices uniformly from [1, maxSteps), sorted
// ascending. Duplicates are kept: two change points on one step demote two
// processes there, which is a valid (if rarer) priority schedule.
func samplePoints(r *rng, buf []int, k, maxSteps int) []int {
	if maxSteps < 2 {
		maxSteps = 2
	}
	for i := 0; i < k; i++ {
		buf = append(buf, 1+r.intn(maxSteps-1))
	}
	sort.Ints(buf)
	return buf
}

func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// topRunnable returns the runnable process with the highest priority.
func (p *pctS) topRunnable(v sched.View) sched.ProcID {
	best := sched.ProcID(-1)
	for _, id := range v.Runnable {
		if best < 0 || p.prio[id] > p.prio[best] {
			best = id
		}
	}
	return best
}

func (p *pctS) Pick(v sched.View, alts []Choice) int {
	// Apply every priority-change point the step counter has crossed: the
	// process that would run next is demoted below all others.
	for p.nextCh < len(p.changeAt) && v.Step >= p.changeAt[p.nextCh] {
		if top := p.topRunnable(v); top >= 0 {
			p.floor--
			p.prio[top] = p.floor
		}
		p.nextCh++
	}
	// Crash points: crash the top-priority runnable instead of running it.
	// (Crash rounds do not advance the step counter, so the subsequent Pick
	// at the same v.Step schedules a step as usual.)
	if p.nextCr < len(p.crashAt) && v.Step >= p.crashAt[p.nextCr] {
		p.nextCr++
		best := -1
		for i, c := range alts {
			if c.Crash && (best < 0 || p.prio[c.Proc] > p.prio[alts[best].Proc]) {
				best = i
			}
		}
		if best >= 0 {
			return best
		}
		// Crash budget already spent (or no crash alternatives here): the
		// point lapses and the run continues by priority.
	}
	best := -1
	for i, c := range alts {
		if !c.Crash && (best < 0 || p.prio[c.Proc] > p.prio[alts[best].Proc]) {
			best = i
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Swarm: per-run strategy mixing.

// swarmS re-rolls its strategy on every Reset: one third of the runs walk
// uniformly, the rest run PCT with a depth drawn from [2, maxDepth]. Because
// the roll is a function of the per-run seed — which the engine derives from
// (Config.Seed, sample index) — the mix is deterministic and independent of
// how samples are spread across parallel workers: worker pools sample the
// same swarm, only in a different order.
type swarmS struct {
	maxDepth int

	walk walkS
	pct  pctS
	cur  Sampler
}

func (s *swarmS) Name() string { return StrategySwarm }

func (s *swarmS) Reset(seed uint64, n, maxSteps, maxCrashes int) {
	r := rng{s: seed}
	roll := r.next()
	sub := r.next()
	if roll%3 == 0 {
		s.cur = &s.walk
	} else {
		d := 2
		if s.maxDepth > 2 {
			d += int(r.next() % uint64(s.maxDepth-1))
		}
		s.pct.d = d
		s.cur = &s.pct
	}
	s.cur.Reset(sub, n, maxSteps, maxCrashes)
}

func (s *swarmS) Pick(v sched.View, alts []Choice) int {
	return s.cur.Pick(v, alts)
}
