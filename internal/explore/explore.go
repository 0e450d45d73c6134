// Package explore performs stateless model checking over the sched runtime:
// it enumerates every schedule (and, optionally, every crash placement) of a
// small configuration and checks a property on each complete run. Because
// runs are deterministic functions of the adversary's decision sequence, the
// state space is the tree of decision sequences, explored by replaying runs
// from scratch with an incremented decision prefix (classic stateless DFS).
//
// This turns the seed-sweep tests of this repository into exhaustive proofs
// for bounded configurations: e.g. safe_agreement's safety holds on *every*
// schedule of 2 proposers with at most one crash, not just the sampled ones.
//
// ExploreContext is the one entry point. Three scaling mechanisms keep
// larger configurations tractable:
//
//   - Config.Workers > 1 shards the decision tree across the engine core's
//     worker pool. A breadth-first pass enumerates a frontier of disjoint
//     prefixes, and each worker then runs the sequential DFS confined to the
//     subtrees it claims. Runs are replayed from scratch, so workers share
//     nothing but the subtree counter and a run-budget counter; the visited
//     run count is identical to the sequential explorer's.
//
//   - Config.Prune enables partial-order reduction: commuting adjacent
//     decisions are canonicalized to ascending process order (a sleep-set
//     style reduction keyed on the step labels' object names), and adjacent
//     crash placements — which always commute — are likewise canonicalized.
//     See reduce.go for the soundness conditions.
//
//   - Config.Dedup enables state-fingerprint deduplication: distinct decision
//     prefixes that converge on the same canonical state (shared objects +
//     harness logs + per-process control points) are recognized through a
//     bounded, sharded visited-state store, and the converged subtree is cut,
//     turning the decision tree into graph exploration. Requires a
//     Session.Fingerprint; see dedup.go for the store and the soundness
//     argument, and docs/ARCHITECTURE.md for the checker contract.
//
// The package is also the engine core both engines run on (core.go): replay
// lanes that lease sched runtimes, one worker pool, one Progress, and the
// decision alternatives (Choice) with their replay-script syntax. The
// schedule sampler (internal/explore/sample) is a choice policy on that
// core, not a second engine.
//
// Keep configurations tiny — the tree grows as (runnable + crashes)^steps.
package explore

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mpcn/internal/sched"
)

// Config bounds an exploration.
type Config struct {
	// MaxCrashes bounds the crashes injected per run (0 = crash-free).
	MaxCrashes int
	// MaxSteps bounds each run; runs hitting it are reported to the checker
	// with BudgetExhausted set (a livelock-ish schedule, not an error).
	MaxSteps int
	// MaxRuns aborts the exploration after this many runs (0 = unlimited).
	// An aborted exploration returns Stats.Exhausted == false. The bound is
	// shared across the workers of a parallel exploration, so sequential and
	// parallel explorations of the same tree execute the same number of runs.
	MaxRuns int
	// Workers sets the worker-pool size: 1 selects the sequential walker,
	// values <= 0 sched-friendly default parallelism (see DefaultWorkers).
	Workers int
	// Prune enables partial-order reduction: schedules that differ from an
	// already-explored schedule only in the order of adjacent commuting
	// decisions are skipped. The reduction is exact for the shared-object
	// state and the per-process outcomes, but checkers must not distinguish
	// equivalent interleavings (e.g. must treat harness-side logs as sets,
	// not sequences). Off by default.
	Prune bool
	// Dedup enables state-fingerprint deduplication: at every new branching
	// decision node (two or more alternatives) the canonical state
	// fingerprint is looked up in a shared visited-state store, and the
	// subtree below an already-visited state is cut. Single-alternative
	// nodes are not probed: a cut there would drop nothing. Requires the
	// explored Session to carry a Fingerprint; explorations without one fail
	// with ErrNoFingerprint. With Dedup, the visited-run count of a parallel
	// exploration depends on worker timing (cuts compose across workers);
	// the sequential explorer stays deterministic.
	Dedup bool
	// DedupMem is the visited-state store's memory budget in bytes (0 =
	// DefaultDedupMem). It is not allocated up front: the store starts small
	// and grows on demand, 16 bytes a slot. Each shard's ceiling is its
	// share of the budget rounded down to a power of two of 24-byte slots
	// (at least 16 slots): a table at the ceiling, the one that evicts,
	// keeps an 8-byte LRU stamp beside each slot. So the store may stop
	// short of the budget: the default tops out at 48 MiB. The budget also
	// sets the store's lock-stripe count: DefaultDedupShards from 24 KiB up,
	// fewer below, down to one shard of 16 slots for a budget of 1. A shard
	// at its ceiling evicts old states as soon as one probe window fills,
	// before every slot is used; eviction costs reduction, never soundness.
	DedupMem int
	// Symmetry enables symmetry reduction on top of Dedup: the visited-state
	// fingerprint is computed in orbit-canonical mode (per-process state in
	// sorted digest lanes, values filtered through Session.Canon), so states
	// equal up to a process permutation hash identically and all but one
	// representative of each orbit is cut. Requires Dedup (the reduction acts
	// only through the visited store; see ErrSymmetryNeedsDedup) and a Session
	// that declares Symmetric (see ErrNoSymmetry): under an undeclared
	// asymmetry the canonical hash would merge states whose futures differ.
	Symmetry bool
	// NoBatch disables batched step grants (prefix plans and sprint tails;
	// see the scripted adversary) while keeping the session-reuse runtime,
	// forcing every decision through an adversary consultation. The visited
	// tree, the recorded scripts and all counters are identical either way —
	// the batched-grant conformance tests replay both and require it — so
	// the knob exists for differential testing and for measuring what
	// batching buys. Under Dedup it also turns off quiet replays (see the
	// scripted adversary): every grant folds its observations, which makes
	// the NoBatch walk the fully observed reference of the batched one. Off
	// by default (batching on).
	NoBatch bool
	// Progress, when non-nil, is updated live while the exploration runs:
	// the walkers add every completed run and pruned alternative, and the
	// visited-state store (under Dedup) is attached for counter snapshots.
	// Long-running drivers (the exploredd daemon) poll Progress.Snapshot to
	// stream per-job progress without perturbing the walkers.
	Progress *Progress
	// Runtime, when non-nil, supplies and reclaims the walkers' sched
	// runtimes instead of NewSession/Close, letting long-running callers
	// lease warm sessions across explorations (process coroutines stay
	// parked between jobs) rather than respawning them per exploration.
	// Every harness runs on the direct protocol, so the process count is
	// the only shape a source keys on.
	Runtime RuntimeSource
}

// RuntimeSource supplies the sched runtimes walkers replay on. Acquire is
// called with the harness's process count and returns a direct-protocol
// session; Release returns a runtime the walker is done with. Sources are
// called from concurrent workers and must be safe for concurrent use; they
// should discard sessions that report !Healthy().
type RuntimeSource interface {
	Acquire(n int) (*sched.Session, error)
	Release(rt *sched.Session)
}

// withDefaults normalizes the zero-valued fields.
func (c Config) withDefaults() Config {
	if c.MaxSteps <= 0 {
		c.MaxSteps = DefaultMaxSteps
	}
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers()
	}
	return c
}

// DefaultMaxSteps bounds each run when Config.MaxSteps (or a replay's
// maxSteps) is unset. The sampler uses it too, so sampled and exhaustive
// runs of one spec see identical budgets: outcome-set containment depends
// on it.
const DefaultMaxSteps = 4096

// WorkerStats reports one pool worker's share of a job: an exploration, or
// a sampling run (whose runs are its samples).
type WorkerStats struct {
	// Worker is the worker index (0-based).
	Worker int
	// Runs is the number of complete runs the worker executed.
	Runs int
	// Pruned is the number of decision alternatives the worker's share of
	// the tree dropped via reduction.
	Pruned int
	// Busy is the wall-clock time the worker spent on the job.
	Busy time.Duration
}

// RunsPerSec is the worker's replay throughput.
func (w WorkerStats) RunsPerSec() float64 {
	if w.Busy <= 0 {
		return 0
	}
	return float64(w.Runs) / w.Busy.Seconds()
}

// Stats summarizes an exploration.
type Stats struct {
	// Runs is the number of complete runs executed (tree leaves visited; the
	// frontier probes of a parallel exploration are not counted, so the
	// parallel and sequential explorers report identical values).
	Runs int
	// Exhausted reports whether the whole decision tree was covered.
	Exhausted bool
	// MaxDepth is the deepest decision sequence encountered.
	MaxDepth int
	// Pruned counts the decision alternatives dropped by reduction, each
	// counted once at the tree node where it was skipped.
	Pruned int
	// Elapsed is the wall-clock duration of the exploration.
	Elapsed time.Duration
	// Workers holds the per-worker breakdown of a parallel exploration. It
	// is nil for the sequential explorer, and also for parallel
	// explorations the frontier pass resolved on its own (tiny trees, a run
	// budget that ran dry, or an early violation) — no worker ever ran.
	Workers []WorkerStats
	// Dedup holds the visited-state store's counters (zero unless
	// Config.Dedup was set).
	Dedup DedupStats
}

// RunsPerSec is the overall replay throughput.
func (s Stats) RunsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Runs) / s.Elapsed.Seconds()
}

// scripted is the exploring adversary: it follows a prescribed prefix of
// alternative indices and takes the first alternative beyond it, recording
// the branching structure for backtracking. One scripted instance is reused
// across all replays of a walker — reset rewinds it — so the per-decision
// bookkeeping slices and the alternative buffers are allocated once and stay
// warm for millions of runs.
type scripted struct {
	prefix     []int
	maxCrashes int
	prune      bool

	crashes   int
	taken     []int
	altCounts []int
	prunedAt  []int
	choices   []Choice

	// State-dedup fields (dedup false = off; the store is the lane's).
	// Decisions at depths below len(prefix) re-traverse nodes an earlier
	// replay created and skip the store; only NEW branching nodes (in the
	// suffix, with two or more alternatives) are looked up and inserted
	// (that structural ownership rule is what makes cuts sound; see
	// dedup.go). cutAt is the depth of this replay's dedup cut (-1 = none):
	// from there on the run collapses to its leftmost remaining alternatives
	// and the store is neither consulted nor extended.
	lane    *Lane
	dedup   bool
	fpFn    func(h *sched.FP)
	cutAt   int
	cutAlts int
	// fp is the reusable plain accumulator: a local would escape through
	// the indirect fpFn call and be heap-allocated at every fingerprint.
	fp sched.FP

	// Symmetry-reduction fields (symmetric == false: plain fingerprints).
	// symFP is the reusable orbit-canonical accumulator, lazily sized to the
	// run's process count.
	symmetric bool
	canon     func(any) any
	symFP     *sched.FP

	// Batched-grant state (batch == false: every decision goes through a
	// Next consultation). altsAt caches the final (post-prune) alternative
	// list of every depth across replays: ~90% of a replay's decisions are
	// prefix re-traversals of the previous replay's path, so reset(prefix,
	// cached=true) keeps the bookkeeping arrays for the shared prefix,
	// patches the branch entry from altsAt, and pre-commits the whole prefix
	// as one sched.Decision.Plan — the runtime replays it without consulting
	// the adversary again. Sprint tails cover the other end of the run: once
	// a single process remains runnable with no crash budget, every
	// remaining node is a singleton, which no store probe visits, and the
	// run tail is granted as one sprint (SprintStep records each entry).
	batch       bool
	altsBuf     []Choice      // scratch: backs the unfiltered enumeration
	altsAt      [][]Choice    // per-depth final alternatives, kept across replays
	planBuf     []sched.Grant // backs the pre-committed prefix plan
	pendingPlan bool          // emit choices[0] + planBuf on the next Next
	// victim backs the Crash list of crash decisions, which the runtime
	// reads before the next consultation: sched.CrashDecision's variadic
	// list would allocate at every crash decision.
	victim [1]sched.ProcID

	// Quiet-replay state (quiet == false: every grant folds observations).
	// Under dedup with batching, observation digests are folded only where a
	// fingerprint reads them. obsAt[d] caches View.Obs at every new
	// branching node above a cut (the nodes backtracking can branch at) and,
	// like altsAt, stays valid across replays until a replay reaches depth d
	// as a new node again. A cached replay plans choices[:P-1] quietly, then
	// the branch consultation (P-1, pendingBranch) reloads obsAt[P-1] and
	// grants choices[P-1] observed; every decision at or below a cut, and
	// every grant of a sprinted forced tail, is quiet.
	quiet         bool
	obsAt         [][]sched.FP
	pendingBranch bool // the next Next is the branch decision at len(prefix)-1
}

var _ Adversary = (*scripted)(nil)

// newScripted builds the adversary of lane l. Under a lane with a visited
// store it deduplicates; only the replay's new branching nodes — depths >=
// len(prefix) with two or more alternatives — are fingerprinted, in
// orbit-canonical mode under Config.Symmetry.
func newScripted(cfg Config, l *Lane) *scripted {
	s := l.Session()
	return &scripted{
		maxCrashes: cfg.MaxCrashes,
		prune:      cfg.Prune,
		batch:      !cfg.NoBatch,
		quiet:      l.store != nil && !cfg.NoBatch,
		cutAt:      -1,
		lane:       l,
		dedup:      l.store != nil,
		fpFn:       s.Fingerprint,
		symmetric:  cfg.Symmetry,
		canon:      s.Canon,
	}
}

// Choices implements Adversary.
func (s *scripted) Choices() []Choice { return s.choices }

// reset rewinds the adversary for the next replay, keeping its buffers.
//
// With cached set, prefix must be the backtrack successor of the previous
// replay's path on this same adversary: taken[:P-1] equal, entry P-1 bumped
// (P = len(prefix)). The decision tree is a deterministic function of the
// path, so every per-depth record of the shared prefix — altCounts, prunedAt,
// the choices the prefix indices select — is byte-identical to what re-walking
// the prefix would recompute: the arrays are truncated instead, the branch
// entry is patched from the cached alternatives, and (under batch) the whole
// prefix is pre-committed as a sched plan so the runtime replays it without
// consulting the adversary. Depths below len(prefix) never probe the visited
// store (Next's d >= len(prefix) guard) and never contain a dedup cut (a cut
// collapses altCounts to 1 below it, so backtracking always branches above
// any cut), so the cached fast path composes with Dedup and Prune unchanged.
// Under quiet the plan stops short of the branch, choices[P-1]: the prefix
// before it replays without observations, and the branch consultation
// restores the digests from obsAt[P-1] (see Next). Those are the branch
// node's own: a replay reached it as a new node on this same path, since
// backtracking only ever bumps depths that some replay of this walker's
// subtree reached as new, uncut branching nodes (altCounts >= 2), where Next
// saves the digests, and no replay reached depth P-1 as a new node since
// (that would have changed the path above it).
func (s *scripted) reset(prefix []int, cached bool) {
	s.prefix = prefix
	s.cutAt = -1
	s.cutAlts = 0
	s.pendingPlan = false
	s.pendingBranch = false
	if p := len(prefix); s.batch && cached && p > 0 && p <= len(s.taken) {
		s.taken = append(s.taken[:p-1], prefix[p-1])
		s.altCounts = s.altCounts[:p]
		s.prunedAt = s.prunedAt[:p]
		c := s.altsAt[p-1][prefix[p-1]]
		s.choices = append(s.choices[:p-1], c)
		s.crashes = 0
		if s.maxCrashes > 0 {
			for _, c := range s.choices {
				if c.Crash {
					s.crashes++
				}
			}
		}
		// planBuf[i] mirrors choices[i+1] (maintained by Next and SprintStep),
		// so the new plan is a truncation plus the patched branch grant.
		s.planBuf = s.planBuf[:p-1]
		if p >= 2 {
			s.planBuf[p-2] = sched.Grant{ID: c.Proc, Crash: c.Crash}
		}
		s.pendingPlan = true
		return
	}
	s.crashes = 0
	s.taken = s.taken[:0]
	s.altCounts = s.altCounts[:0]
	s.prunedAt = s.prunedAt[:0]
	s.choices = s.choices[:0]
	s.planBuf = s.planBuf[:0]
}

// fingerprint digests the canonical state at the current decision boundary:
// each process's control point and observation digest (sched.FP's
// ControlPoints), the previous decision when pruning (two nodes only merge
// when their partial-order filters coincide, so a cut subtree is exactly the
// reduced subtree the first visit expanded), and everything the harness
// registered (shared objects + checker-visible logs). Under symmetry the
// digest is orbit-canonical: process i's control point goes into digest
// lane i, the symmetry-declaring session's Fingerprint routes per-process
// shared state into the lanes likewise, and Sum folds the sorted lane
// digests — so two states that are process permutations of one another hash
// identically. Asymmetric context (the POR previous decision) stays in the
// root digest.
func (s *scripted) fingerprint(v *sched.View) sched.Fingerprint {
	h := &s.fp
	if s.symmetric {
		if n := len(v.Pending); s.symFP == nil || s.symFP.Lanes() != n {
			s.symFP = sched.NewOrbitFP(n, s.canon)
		}
		h = s.symFP
	}
	h.Reset()
	h.ControlPoints(v)
	s.foldPrev(h)
	s.fpFn(h)
	return h.Sum()
}

// foldPrev folds the previous decision under pruning: two nodes may only
// merge when their partial-order filters coincide, so a cut subtree is
// exactly the reduced subtree the first visit expanded. The fold is raw
// (absolute process IDs) even under symmetry: the POR filter compares
// concrete IDs, so permutation-related states with different previous
// decisions genuinely have different reduced subtrees and must not merge.
func (s *scripted) foldPrev(h *sched.FP) {
	if !s.prune {
		return
	}
	if n := len(s.choices); n > 0 {
		prev := s.choices[n-1]
		kind := 1 // run 1, crash 2
		if prev.Crash {
			kind = 2
		}
		h.Int(kind)
		h.Int(int(prev.Proc))
		h.Label(prev.Label)
	} else {
		h.Int(0)
	}
}

// alternatives enumerates the decision alternatives at the current node:
// every runnable process may be granted a step, and — while the crash budget
// lasts — every runnable process may be crashed instead. With pruning on,
// alternatives that commute with the previous decision and would produce a
// non-canonical (descending) order are dropped; see reduce.go. The returned
// slice is this depth's altsAt entry — it stays valid across later decisions
// and replays (until a replay reaches this depth again), which is what lets
// reset's cached fast path patch a branch choice without re-walking the
// prefix.
func (s *scripted) alternatives(v *sched.View) []Choice {
	d := len(s.taken)
	for d >= len(s.altsAt) {
		s.altsAt = append(s.altsAt, nil)
	}
	crash := s.crashes < s.maxCrashes
	if !s.prune || len(s.choices) == 0 {
		// No filtering: enumerate straight into the depth's cached buffer.
		s.altsAt[d] = Alternatives(s.altsAt[d][:0], v, crash)
		s.prunedAt = append(s.prunedAt, 0)
		return s.altsAt[d]
	}
	alts := Alternatives(s.altsBuf[:0], v, crash)
	s.altsBuf = alts
	prev := s.choices[len(s.choices)-1]
	kept := s.altsAt[d][:0]
	for _, c := range alts {
		if s.canonicallyLater(prev, c) {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		// Every continuation commutes below the previous decision: this
		// prefix has no canonically-ordered completion. The equivalence
		// classes below it all have representatives elsewhere in the tree,
		// but the run must still finish, so fall back to the unfiltered
		// alternatives (pruning less is always sound, and the fallback is a
		// deterministic function of the path, which replay requires).
		s.prunedAt = append(s.prunedAt, 0)
		kept = append(kept, alts...)
		s.altsAt[d] = kept
		return kept
	}
	s.altsAt[d] = kept
	s.prunedAt = append(s.prunedAt, len(alts)-len(kept))
	return kept
}

// Next implements sched.Adversary.
func (s *scripted) Next(v *sched.View) sched.Decision {
	if s.pendingPlan {
		// Cached prefix replay: the bookkeeping arrays already hold the whole
		// prefix (see reset), so this single consultation re-issues choices[0]
		// and pre-commits the rest as a plan the runtime executes unconsulted.
		// Under quiet the plan ends before the branch and runs without
		// observations: no fingerprint reads the prefix's digests.
		s.pendingPlan = false
		if !s.quiet {
			dec := s.decisionFor(s.choices[0])
			dec.Plan = s.planBuf
			return dec
		}
		s.pendingBranch = true
		if p := len(s.prefix); p >= 2 {
			dec := s.decisionFor(s.choices[0])
			dec.Plan = s.planBuf[:p-2]
			dec.Quiet = true
			return dec
		}
		// A one-decision prefix: this consultation is the branch.
	}
	if s.pendingBranch {
		// The branch: the digests the quiet prefix left stale are reloaded
		// from the first visit of this node, and its grant observes again.
		s.pendingBranch = false
		d := len(s.prefix) - 1
		dec := s.decisionFor(s.choices[d])
		dec.Obs = &s.obsAt[d]
		return dec
	}
	alts := s.alternatives(v)
	if s.dedup {
		// Only branching nodes are probed: a singleton's one child state is a
		// function of its state, so a cut there would drop nothing, and the
		// cut lands instead on the first branching descendant.
		if d := len(s.taken); s.cutAt < 0 && d >= len(s.prefix) && len(alts) > 1 {
			if s.quiet {
				s.saveObs(d, v.Obs)
			}
			if s.lane.Visit(s.fingerprint(v)) {
				s.cutAt = d
			}
		}
		if s.cutAt >= 0 {
			// Converged state: every continuation below it was (or is being)
			// explored from the state's first visit, so the subtree collapses
			// to the single leftmost remaining path. The run still completes
			// (the runtime needs the leaf) and the leaf it reaches duplicates
			// the first visit's leftmost leaf, so checking it is redundant
			// but safe.
			s.cutAlts += len(alts) - 1
			alts = alts[:1]
		}
	}
	idx := 0
	if d := len(s.taken); d < len(s.prefix) {
		idx = s.prefix[d]
	}
	if idx >= len(alts) {
		// The tree shape shifted under a stale prefix: impossible when runs
		// are deterministic; guard against checker-visible corruption.
		panic(fmt.Sprintf("explore: prefix index %d out of %d alternatives", idx, len(alts)))
	}
	s.altCounts = append(s.altCounts, len(alts))
	s.taken = append(s.taken, idx)
	c := alts[idx]
	s.choices = append(s.choices, c)
	if s.batch && len(s.choices) > 1 {
		s.planBuf = append(s.planBuf, sched.Grant{ID: c.Proc, Crash: c.Crash})
	}
	if c.Crash {
		s.crashes++
		return s.decisionFor(c)
	}
	dec := sched.RunDecision(c.Proc)
	// At or below a cut no fingerprint is taken again this run.
	dec.Quiet = s.quiet && s.cutAt >= 0
	if s.batch && len(s.taken) >= len(s.prefix) &&
		len(v.Runnable) == 1 && s.crashes >= s.maxCrashes {
		// Every remaining node is a singleton: one runnable process and no
		// crash budget, so no store probe is left to make either, and the
		// tail's grants are quiet above a cut too. The run tail is granted
		// as one sprint; SprintStep records each entry with exactly the
		// values a per-node consultation would have recorded (taken 0 of 1
		// alternative, nothing pruned).
		dec.Sprint = true
		dec.Quiet = s.quiet
	}
	return dec
}

// saveObs caches the observation digests of new branching node d, fully
// observed, for the branch consultations of later replays.
func (s *scripted) saveObs(d int, obs []sched.FP) {
	for d >= len(s.obsAt) {
		s.obsAt = append(s.obsAt, nil)
	}
	s.obsAt[d] = append(s.obsAt[d][:0], obs...)
}

// decisionFor converts a recorded choice back into the sched decision that
// produced it.
func (s *scripted) decisionFor(c Choice) sched.Decision {
	if c.Crash {
		s.victim[0] = c.Proc
		return sched.Decision{Run: -1, Crash: s.victim[:]}
	}
	return sched.RunDecision(c.Proc)
}

// SprintStep implements sched.SprintObserver: each sprinted grant is a
// singleton decision node, recorded exactly as Next would have.
func (s *scripted) SprintStep(id sched.ProcID, label sched.Label) {
	s.taken = append(s.taken, 0)
	s.altCounts = append(s.altCounts, 1)
	s.prunedAt = append(s.prunedAt, 0)
	s.choices = append(s.choices, Choice{Proc: id, Label: label})
	s.planBuf = append(s.planBuf, sched.Grant{ID: id})
}

// PropertyError wraps a property violation with the decision script that
// produced it, so the failing schedule can be replayed.
type PropertyError struct {
	Script []string
	Err    error
}

// Error implements error.
func (e *PropertyError) Error() string {
	return fmt.Sprintf("explore: property violated on schedule %v: %v", e.Script, e.Err)
}

// Unwrap exposes the property's error.
func (e *PropertyError) Unwrap() error { return e.Err }

// ErrRunFailed reports that the runtime itself rejected a run (a body panic
// or adversary misbehaviour), which exploration treats as fatal.
var ErrRunFailed = errors.New("explore: run failed")

// Session couples a process factory with a property checker over shared
// per-run state. Make must return fresh process bodies (and reset any closure
// state Check reads) on every call, the same number each time, and runs must
// be deterministic functions of the decision sequence. (This is the checking
// harness; the runtime the walker replays it on is a sched.Session.)
type Session struct {
	// Make builds the process bodies of one run.
	Make func() []sched.Proc
	// Check validates one complete run; returning a non-nil error stops the
	// exploration with a PropertyError. Under Config.Prune, Check must not
	// distinguish runs that differ only in the order of commuting steps.
	Check func(*sched.Result) error
	// Fingerprint folds the current run's canonical state into h, called at
	// decision boundaries when Config.Dedup is set (required then; see
	// ErrNoFingerprint). The digest must determine the run's future: it must
	// cover every shared object the bodies touch (the reg, snapshot, object
	// and agreement types all implement sched.Fingerprinter) and every
	// harness log Check reads — if two run states fold identical words,
	// their continuations and Check verdicts must be identical. The walker
	// covers the rest: per-process control points (pending label, crashed
	// flag, step count), per-process observation digests (sched.Observe —
	// which pin in-flight local state such as a scanned-but-unwritten view,
	// provided every shared object the bodies use reports its reads via
	// Observe, as all of this repository's objects do), and Result.Steps,
	// Crashes and BudgetExhausted. Decided values, statuses and anything
	// else Check consumes must be covered here (fold your result log).
	// Checkers must not read Result.Trace or Outcome.LastLabel under Dedup,
	// and — as under Prune — must treat logs as multisets when the log fold
	// is commutative.
	Fingerprint func(h *sched.FP)
	// Symmetric declares the harness invariant under process permutation,
	// which Config.Symmetry requires: the process bodies are identical up to
	// value parameterizations Canon erases, per-process shared state is
	// folded through FP.Lane in Fingerprint (the reg, snapshot and agreement
	// types route per-cell state that way), and Check's verdict is invariant
	// under permuting the processes of a run. Declaring symmetry on an
	// asymmetric harness makes the reduction unsound (states with different
	// futures merge); the spectest battery exists to catch exactly that.
	Symmetric bool
	// Canon, used only under Config.Symmetry, maps checker-visible values to
	// their process-anonymous form before hashing (nil = identity): e.g. a
	// harness whose process i proposes the value 100+i erases all proposal
	// values to one tag, so runs differing only in WHICH process's value won
	// canonicalize together. Canon must be the identity on every value whose
	// concrete identity affects the run's future or Check's verdict beyond
	// process naming.
	Canon func(v any) any
	// Close, when non-nil, releases what the harness keeps between runs:
	// the BG harness keeps its engine's simulator threads parked on their
	// coroutines. The engines call it when the lane that replays the
	// session retires, and ReplayScript and ReplayLoose when their run
	// ends; a caller that runs Make itself calls it when done. A closed
	// session stays usable, and Check still reads its last run.
	Close func()
}

// runBudget is the shared MaxRuns ticket counter: every complete run takes a
// ticket before executing, so a parallel exploration executes exactly the
// same number of runs as a sequential one.
type runBudget struct {
	max   int64
	taken atomic.Int64
}

func newRunBudget(maxRuns int) *runBudget {
	return &runBudget{max: int64(maxRuns)}
}

func (b *runBudget) take() bool {
	if b.max <= 0 {
		return true
	}
	return b.taken.Add(1) <= b.max
}

// walker runs the stateless DFS over one or more disjoint subtrees on one
// lane. The lane's sched runtime keeps its process coroutines parked between
// replays and the scripted adversary is reused across them, so a replay's
// only per-run work is resetting state and re-executing the steps.
type walker struct {
	lane   *Lane
	adv    *scripted
	budget *runBudget

	cutAlts int  // alternatives dropped inside dedup-cut subtrees
	aborted bool // the run budget ran dry
}

func newWalker(cfg Config, l *Lane, budget *runBudget) *walker {
	return &walker{lane: l, adv: newScripted(cfg, l), budget: budget}
}

// replay executes one run with the given decision prefix. Under dedup, only
// the replay's new branching nodes — depths >= len(prefix) with two or more
// alternatives — touch the visited store; shallower decisions re-traverse
// nodes an earlier replay already created. cached asserts that prefix is
// the backtrack successor of this walker's previous replay (see
// scripted.reset); pass false for the first replay of a subtree and for
// frontier probes. The returned Result is owned by the lane's runtime and
// valid until the next replay.
func (w *walker) replay(prefix []int, cached bool) (*sched.Result, error) {
	w.adv.reset(prefix, cached)
	return w.lane.Run(w.adv)
}

// explore exhausts the subtree rooted at the node reached by prefix: the
// prefix decisions are pinned and backtracking happens only at depths >=
// len(prefix). Pruned-alternative counts are attributed to the first run
// entering each node, so every tree node is counted exactly once globally.
func (w *walker) explore(prefix []int) error {
	adv := w.adv
	cur := append([]int(nil), prefix...)
	newFrom := len(prefix)
	cached := false // first replay: the adversary holds another subtree's path
	for {
		if w.lane.stopped() {
			return nil
		}
		if !w.budget.take() {
			w.aborted = true
			return nil
		}
		res, err := w.replay(cur, cached)
		if err != nil {
			return err
		}
		cached = true // from here every cur is the backtrack successor
		w.cutAlts += adv.cutAlts
		pruned := 0
		for d := newFrom; d < len(adv.prunedAt); d++ {
			pruned += adv.prunedAt[d]
		}
		w.lane.Count(pruned, len(adv.taken))
		if cerr := w.lane.session.Check(res); cerr != nil {
			return &PropertyError{Script: Script(adv.choices), Err: cerr}
		}

		// Backtrack: bump the deepest decision with an untried alternative,
		// never ascending into the pinned prefix.
		d := len(adv.taken) - 1
		for d >= len(prefix) && adv.taken[d]+1 >= adv.altCounts[d] {
			d--
		}
		if d < len(prefix) {
			return nil // subtree exhausted
		}
		cur = append(cur[:0], adv.taken[:d]...)
		cur = append(cur, adv.taken[d]+1)
		newFrom = d + 1
	}
}

// ErrNoFingerprint is returned when Config.Dedup is set but the explored
// Session carries no Fingerprint: without one, state deduplication could
// silently merge states the checker distinguishes.
var ErrNoFingerprint = errors.New("explore: Config.Dedup needs a Session.Fingerprint")

// ErrNoSymmetry is returned when Config.Symmetry is set but the explored
// Session does not declare Symmetric: canonicalizing an undeclared-symmetric
// harness could silently merge states whose futures differ.
var ErrNoSymmetry = errors.New("explore: Config.Symmetry needs a Session declaring Symmetric")

// ErrSymmetryNeedsDedup is returned when Config.Symmetry is set without
// Config.Dedup: symmetry reduction acts only through the visited-state
// store's canonical fingerprints, so there is nothing for it to do alone.
var ErrSymmetryNeedsDedup = errors.New("explore: Config.Symmetry requires Config.Dedup")

// checkSymmetry validates the Symmetry configuration against the session.
func checkSymmetry(s Session, cfg Config) error {
	if !cfg.Symmetry {
		return nil
	}
	if !s.Symmetric {
		return ErrNoSymmetry
	}
	if !cfg.Dedup {
		return ErrSymmetryNeedsDedup
	}
	return nil
}

// ExploreSession explores s's decision tree with the sequential walker; it
// is ExploreContext with one worker, under no context.
func ExploreSession(s Session, cfg Config) (Stats, error) {
	cfg.Workers = 1
	return ExploreContext(context.Background(), func() Session { return s }, cfg)
}

// ExploreContext enumerates the decision tree of newSession's harness (fresh
// shared state per run, from Session.Make) and applies Session.Check to every
// complete run, stopping at the first property violation. Config.Dedup needs
// a Session carrying a Fingerprint.
//
// With Config.Workers == 1 the sequential walker exhausts the tree from the
// root and newSession is called once. Otherwise a breadth-first frontier pass
// splits the tree into disjoint prefix subtrees that a pool of Workers
// workers exhausts; newSession is called once per worker plus once for the
// frontier probe, and every returned Session must own INDEPENDENT run
// state, because workers replay runs concurrently. Without Dedup an
// exhausted walk's run count, pruned-branch count and depth do not depend on
// the worker count; only the wall clock (and, on property violations, which
// counterexample surfaces first) differs. A walk that MaxRuns truncates
// executes exactly MaxRuns runs at any worker count, but which runs the
// workers took, and so its pruned and depth counts, depends on their
// timing. With Dedup the workers share one visited-state store, so cut-offs
// compose pool-wide and the parallel run count is timing-dependent (bounded
// by the tree walk's; the verdict still matches). A checker panic in any
// worker is re-raised on the caller's goroutine.
//
// Cancelling ctx stops the walk at the next run boundary (a single run is
// bounded by MaxSteps, so cancellation is prompt) and the exploration
// returns ctx's error with Stats covering the work done so far, Exhausted
// false.
func ExploreContext(ctx context.Context, newSession func() Session, cfg Config) (Stats, error) {
	if newSession == nil {
		panic("explore: ExploreContext needs a session factory")
	}
	cfg = cfg.withDefaults()
	start := time.Now()
	first := newSession()
	if err := checkSymmetry(first, cfg); err != nil {
		return Stats{}, err
	}
	// The visited-state store is shared by every worker, so a state first
	// visited in one subtree cuts converged branches pool-wide.
	var store *dedupStore
	if cfg.Dedup {
		if first.Fingerprint == nil {
			return Stats{}, ErrNoFingerprint
		}
		store = newDedupStore(cfg.DedupMem, 0)
		cfg.Progress.attach(store)
		defer cfg.Progress.detach()
	}
	budget := newRunBudget(cfg.MaxRuns)
	sessions, subtrees := []Session{first}, [][]int{nil}
	var base Stats
	if cfg.Workers > 1 {
		probe := newLane(cfg, first, nil, ctx.Done())
		var aborted bool
		var err error
		subtrees, aborted, err = buildFrontier(newWalker(cfg, probe, budget), cfg.Workers*frontierPerWorker)
		probe.retire()
		base = Stats{Runs: probe.runs, Pruned: probe.pruned, MaxDepth: probe.maxDepth}
		if err == nil {
			err = ctx.Err()
		}
		if err != nil || aborted || len(subtrees) == 0 {
			base.Exhausted = err == nil && !aborted
			base.Elapsed = time.Since(start)
			return base, err
		}
		sessions = make([]Session, min(cfg.Workers, len(subtrees)))
		for i := range sessions {
			sessions[i] = newSession()
		}
	}
	walkers := make([]*walker, len(sessions))
	st, err := pool(ctx, cfg, sessions, store, len(subtrees), func(k int, l *Lane) func(int) error {
		w := newWalker(cfg, l, budget)
		walkers[k] = w
		return func(i int) error { return w.explore(subtrees[i]) }
	})
	if cfg.Workers == 1 {
		st.Workers = nil
	}
	st.Runs += base.Runs
	st.Pruned += base.Pruned
	st.MaxDepth = max(st.MaxDepth, base.MaxDepth)
	st.Dedup = store.snapshot()
	aborted := false
	for _, w := range walkers {
		if w != nil {
			st.Dedup.CutAlternatives += w.cutAlts
			aborted = aborted || w.aborted
		}
	}
	st.Exhausted = err == nil && !aborted
	st.Elapsed = time.Since(start)
	return st, err
}
