package sched

import (
	"math/rand"
	"strings"
)

// View is what an adversary observes before each scheduling decision. The
// runtime passes it by pointer and owns it, the View and its slices alike:
// both are only valid for the duration of the Next call, and adversaries
// must copy anything they retain — the runtime reuses the View and the
// backing arrays on every round (and, under a Session, on every run), so a
// retained pointer or slice aliases state that has since moved on.
// Adversaries must never write the View or through its slices.
type View struct {
	// Step is the number of steps scheduled so far.
	Step int
	// Runnable lists the parked (live) processes in ascending order.
	Runnable []ProcID
	// Pending[i] is the interned label process i is about to execute
	// (LabelNone when the process is not parked). A parked process has
	// already executed the code preceding the labelled operation, so crashing
	// it now models a crash "while executing" the enclosing routine, before
	// the labelled step.
	Pending []Label
	// Crashed[i] reports whether process i has crashed.
	Crashed []bool
	// StepsOf[i] is the number of steps process i has executed.
	StepsOf []int
	// Obs[i] is process i's observation digest — a running FP of every value
	// shared objects returned to it from shared state (see sched.Observe).
	// nil unless Config.Observe is set. Together with Pending/Crashed/StepsOf
	// it determines each process's local state, which is what makes replay
	// engines' state fingerprints (explore.Config.Dedup) complete. The
	// digests are current only when every grant since the run began folded
	// its observations, or Decision.Obs reloaded them after the last quiet
	// one (see Decision.Quiet).
	Obs []FP
}

// Decision is an adversary's choice for one scheduling round: the processes
// to crash (applied first) and the process to run. If Run is non-negative
// but invalid (or was just crashed), the runtime deterministically falls
// back to the smallest parked process. A negative Run together with a
// non-empty Crash list makes this a crash-only round: no step executes and
// the adversary is consulted again (used by exhaustive exploration, where
// "crash p" and "run q" are separate decision points).
//
// Plan and Sprint are the batched-grant extensions: an adversary that
// already knows its next decisions pre-commits them and skips the per-step
// consultation round-trip, the dominant cost of replay engines. Batched
// grants go through the same per-grant bookkeeping (step counts, budget
// checks, traces) as consulted ones, so a run's observables are identical
// whether or not its decisions were batched. Both session protocols execute
// them.
type Decision struct {
	Run   ProcID
	Crash []ProcID

	// Plan pre-commits the grants that follow this decision's own Crash/Run:
	// the runtime executes them in order without consulting the adversary,
	// checking the step budget before each one. A planned run grant whose
	// process is not parked fails the run (the plan diverged from the
	// program, an adversary bug); a planned crash of a non-parked process is
	// skipped, like an entry of Crash. The slice is copied by the runtime.
	Plan []Grant

	// Sprint keeps granting Run consecutive steps after this round — without
	// consulting the adversary — until the process finishes, the step budget
	// is exhausted, or the run ends. Adversaries that need per-step records
	// of the sprinted grants implement SprintObserver. Meaningful only with a
	// valid Run; ignored on crash-only rounds.
	Sprint bool

	// Quiet runs this decision's grants — Run, Plan and Sprint alike —
	// without observation digests until the next consultation: Observe and
	// the oracles fold nothing and Env.Observing reports false. The digests
	// go stale, so an adversary that reads View.Obs after quiet grants must
	// first reload them through Obs. Replay engines use it for decisions
	// whose digests no fingerprint will read: a re-executed prefix, or a run
	// below a dedup cut. Meaningful only under Config.Observe.
	Quiet bool

	// Obs, when non-nil, points at digests (one per process) that overwrite
	// the observation digests before this decision's grants, under
	// Config.Observe; the runtime copies them. A replay engine that ran a
	// prefix quietly restores the digests it recorded when it last executed
	// that prefix with observations on. It is a pointer rather than a slice
	// because every consultation copies its Decision: at 72 bytes Go copies
	// it with inline moves, and a slice field (88 bytes) would send every
	// copy through runtime.duffcopy on amd64.
	Obs *[]FP
}

// Grant is one pre-committed scheduling action of a batched Decision: run one
// step of ID, or crash it.
type Grant struct {
	ID    ProcID
	Crash bool
}

// SprintObserver is implemented by adversaries that need to observe the
// steps a Decision.Sprint executes on their behalf: the runtime calls
// SprintStep — with the process and the label it is parked on — immediately
// before granting each sprinted step (the first, consulted grant of the
// sprint round is not reported). Implementations must not panic and must not
// call back into the runtime.
type SprintObserver interface {
	SprintStep(id ProcID, label Label)
}

// RunDecision returns the decision granting one step to id.
func RunDecision(id ProcID) Decision { return Decision{Run: id} }

// CrashDecision returns a crash-only decision: the listed processes crash and
// no step executes this round — the runtime consults the adversary again.
// Exploration engines use it to make "crash p" and "run q" separate decision
// points of the schedule tree.
func CrashDecision(ids ...ProcID) Decision { return Decision{Run: -1, Crash: ids} }

// Adversary chooses interleavings and crashes. Implementations must be
// deterministic functions of their own state and the views they receive, so
// that runs are reproducible. Next must not retain v or write it: the
// runtime owns the View and rewrites it in place between consultations.
type Adversary interface {
	Next(v *View) Decision
}

// Random schedules a uniformly random runnable process at each round and
// never crashes anyone. It is the default adversary.
type Random struct {
	rng *rand.Rand
}

var _ Adversary = (*Random)(nil)

// NewRandom returns a Random adversary with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Next implements Adversary.
func (a *Random) Next(v *View) Decision {
	return Decision{Run: v.Runnable[a.rng.Intn(len(v.Runnable))]}
}

// RoundRobin cycles through the runnable processes in ID order and never
// crashes anyone.
type RoundRobin struct {
	last ProcID
}

var _ Adversary = (*RoundRobin)(nil)

// NewRoundRobin returns a RoundRobin adversary.
func NewRoundRobin() *RoundRobin { return &RoundRobin{last: -1} }

// Next implements Adversary.
func (a *RoundRobin) Next(v *View) Decision {
	for _, id := range v.Runnable {
		if id > a.last {
			a.last = id
			return Decision{Run: id}
		}
	}
	a.last = v.Runnable[0]
	return Decision{Run: v.Runnable[0]}
}

type crashRuleKind int

const (
	crashAtStep crashRuleKind = iota + 1
	crashOnLabel
	crashAfterProcSteps
)

type crashRule struct {
	kind       crashRuleKind
	proc       ProcID
	step       int
	label      string
	occurrence int
	seen       int
	fired      bool
}

// Plan composes a base scheduling adversary with a crash schedule. Rules are
// evaluated before every round; all due crashes are delivered before the next
// step executes.
type Plan struct {
	base  Adversary
	rules []*crashRule
}

var _ Adversary = (*Plan)(nil)

// NewPlan returns a Plan wrapping base. When base is nil, a seed-0 Random
// adversary is used.
func NewPlan(base Adversary) *Plan {
	if base == nil {
		base = NewRandom(0)
	}
	return &Plan{base: base}
}

// CrashAtStep crashes the given processes just before the step-th scheduled
// step (0-based) executes.
func (p *Plan) CrashAtStep(step int, procs ...ProcID) *Plan {
	for _, id := range procs {
		p.rules = append(p.rules, &crashRule{kind: crashAtStep, proc: id, step: step})
	}
	return p
}

// CrashOnLabel crashes proc the occurrence-th time (1-based) it is parked
// about to execute a step whose label contains substr. Because a parked
// process has already run the code before the labelled operation, this models
// a crash strictly inside the enclosing routine.
func (p *Plan) CrashOnLabel(proc ProcID, substr string, occurrence int) *Plan {
	if occurrence < 1 {
		occurrence = 1
	}
	p.rules = append(p.rules, &crashRule{
		kind: crashOnLabel, proc: proc, label: substr, occurrence: occurrence,
	})
	return p
}

// CrashAfterProcSteps crashes proc once it has executed at least k steps.
func (p *Plan) CrashAfterProcSteps(proc ProcID, k int) *Plan {
	p.rules = append(p.rules, &crashRule{kind: crashAfterProcSteps, proc: proc, step: k})
	return p
}

// Next implements Adversary.
func (p *Plan) Next(v *View) Decision {
	var crash []ProcID
	for _, r := range p.rules {
		if r.fired || v.Crashed[r.proc] {
			continue
		}
		switch r.kind {
		case crashAtStep:
			if v.Step >= r.step {
				r.fired = true
				crash = append(crash, r.proc)
			}
		case crashOnLabel:
			if v.Pending[r.proc] != LabelNone && strings.Contains(v.Pending[r.proc].String(), r.label) {
				r.seen++
				if r.seen >= r.occurrence {
					r.fired = true
					crash = append(crash, r.proc)
				}
			}
		case crashAfterProcSteps:
			if v.StepsOf[r.proc] >= r.step {
				r.fired = true
				crash = append(crash, r.proc)
			}
		}
	}
	d := p.base.Next(v)
	d.Crash = append(d.Crash, crash...)
	return d
}

// CrashSet is a convenience adversary that crashes a fixed set of processes
// at the very first round and otherwise schedules with the base adversary.
// It models runs where the faulty set is "initially dead".
type CrashSet struct {
	base    Adversary
	victims []ProcID
	done    bool
}

var _ Adversary = (*CrashSet)(nil)

// NewCrashSet returns a CrashSet adversary over base (nil means seeded-0
// Random) that crashes victims immediately.
func NewCrashSet(base Adversary, victims ...ProcID) *CrashSet {
	if base == nil {
		base = NewRandom(0)
	}
	vs := make([]ProcID, len(victims))
	copy(vs, victims)
	return &CrashSet{base: base, victims: vs}
}

// Next implements Adversary.
func (a *CrashSet) Next(v *View) Decision {
	d := a.base.Next(v)
	if !a.done {
		a.done = true
		d.Crash = append(d.Crash, a.victims...)
	}
	return d
}

// Striped is a contention-maximizing adversary: it runs the favoured
// processes for period-1 consecutive steps, then lets one non-favoured
// process move, cycling. It drives the "fast updaters starve a scanner"
// schedules that exercise helping/borrowing paths (e.g. the embedded-view
// borrow of the Afek-et-al snapshot).
type Striped struct {
	favoured map[ProcID]bool
	period   int
	count    int
}

var _ Adversary = (*Striped)(nil)

// NewStriped returns a Striped adversary favouring the given processes with
// the given period (minimum 2).
func NewStriped(period int, favoured ...ProcID) *Striped {
	if period < 2 {
		period = 2
	}
	m := make(map[ProcID]bool, len(favoured))
	for _, id := range favoured {
		m[id] = true
	}
	return &Striped{favoured: m, period: period}
}

// Next implements Adversary.
func (a *Striped) Next(v *View) Decision {
	a.count++
	if a.count%a.period != 0 {
		for _, id := range v.Runnable {
			if a.favoured[id] {
				return Decision{Run: id}
			}
		}
	}
	for _, id := range v.Runnable {
		if !a.favoured[id] {
			return Decision{Run: id}
		}
	}
	return Decision{Run: v.Runnable[0]}
}
