package sched

import "fmt"

// Env is the handle a simulated process uses to interact with the runtime.
// One Env belongs to exactly one process; shared-object implementations
// receive it as an explicit argument so each operation can mark its
// linearization point.
//
// Env methods must only be called while the owning process holds the
// scheduler token, on the process's own execution context: from the process
// body or from code it calls. Code that runs on another coroutine or
// goroutine on the process's behalf (such as internal/bg's simulator
// threads) must hand its steps back to the process to execute; under the
// direct protocol a process can only be suspended from its own coroutine.
type Env struct {
	s     *Session
	id    ProcID
	n     int
	grant chan grantMsg // rendezvous protocol only

	// Direct-protocol state: yield suspends this process's coroutine back to
	// whoever resumed it, the dispatcher or the process below it on the
	// chain; crashNext, set by the dispatcher before a crash-delivering
	// resume, makes StepL re-raise the crash sentinel.
	yield     func(struct{}) bool
	crashNext bool

	decided  bool
	decision any
}

// ID returns the process identifier (0-based).
func (e *Env) ID() ProcID { return e.id }

// N returns the number of processes in the run.
func (e *Env) N() int { return e.n }

// Step marks an atomic step of the process. The process parks, the adversary
// observes label as the operation the process is about to execute, and when
// the scheduler grants the step, Step returns and the caller performs the
// operation. All code executed between two Step calls forms a single atomic
// step of the model.
//
// Step interns label on every call; shared objects on the hot path intern
// their labels once at construction and call StepL instead.
//
// Step panics with a private sentinel when the adversary crashes the process;
// the runtime recovers it. See IsCrash.
func (e *Env) Step(label string) {
	e.StepL(Intern(label))
}

// StepL is Step for a pre-interned label: the allocation-free hot path.
func (e *Env) StepL(label Label) {
	s := e.s
	if s.direct {
		// Batched-grant fast path: a plan whose next grant is this process,
		// or an active sprint on it, is consumed in place — the grant
		// bookkeeping inlined, no park/unpark transition, no coroutine
		// switch. A spent budget falls through to decide, which reports it.
		if i := s.planIdx; i < len(s.plan) {
			if g := s.plan[i]; !g.Crash && g.ID == e.id && s.steps < s.cfg.MaxSteps {
				s.planIdx = i + 1
				s.selfGrant(e.id, label)
				return
			}
		} else if s.sprint == e.id && s.steps < s.cfg.MaxSteps {
			if s.sprintObs != nil {
				s.sprintObs.SprintStep(e.id, label)
			}
			s.selfGrant(e.id, label)
			return
		}
		s.pending[e.id] = label
		s.state[e.id] = stateParked
		// The token is ours: make the next decision here, on this stack,
		// and pass the token on. A grant of this process's own step returns
		// at once, with no switch.
		if h := s.decide(false); h != e.id {
			s.hand = h
			s.handoff(e)
		}
		return
	}
	s.events <- event{id: e.id, kind: evPark, label: label}
	g := <-e.grant
	if g.crash {
		panic(crashSentinel{id: e.id})
	}
}

// Decide records the process's decision value. Deciding twice is a
// programming error in the simulated algorithm and panics. The decision is
// never undone, even if the process crashes afterwards.
func (e *Env) Decide(v any) {
	if e.decided {
		panic("sched: process decided twice")
	}
	e.decided = true
	e.decision = v
}

// Decided reports whether the process has decided.
func (e *Env) Decided() bool { return e.decided }

// Decision returns the decided value; meaningful only after Decide.
func (e *Env) Decision() any { return e.decision }

// Leader is an Ω failure-detector oracle (§1.3 of the paper: Ω = Ω1 is the
// weakest failure detector for consensus): it returns the smallest live
// process. Once no further crashes occur, every correct process is returned
// the same correct leader forever — exactly Ω's eventual-leadership
// property. Queries are local (no scheduler step); algorithms must still
// take steps in their waiting loops.
func (e *Env) Leader() ProcID {
	leader := e.id // fallback: everyone else crashed or returned
	for i, crashed := range e.s.crashed {
		if !crashed && e.s.state[i] != stateDone {
			leader = ProcID(i)
			break
		}
	}
	// The oracle reads global crash state: record the observation so replay
	// engines' fingerprints capture what this process may have branched on.
	e.observeScalar(fpTagInt, uint64(leader))
	return leader
}

// LeaderSet is an Ωx failure-detector oracle (§1.3: Ωx outputs at each
// process a set of x processes such that eventually the same set is output
// everywhere and contains at least one correct process). The returned window
// is {s..s+x-1} with s = max(0, ℓ-x+1) where ℓ is the smallest live process:
// it always contains ℓ, it stabilizes once crashes stop, and it is
// *adversarially weak* — it may contain crashed processes and its minimum
// may be crashed, so Ω1 cannot be derived by taking the set's minimum.
// Queries are local (no scheduler step). x must be in 1..N().
func (e *Env) LeaderSet(x int) []ProcID {
	s := e.LeaderWindow(x)
	set := make([]ProcID, x)
	for i := range set {
		set[i] = s + ProcID(i)
	}
	return set
}

// LeaderWindow is LeaderSet without the slice: it returns the lowest member
// s of the Ωx window {s..s+x-1}, recording the same observation. Wait loops
// that query the oracle at every probe use it to stay allocation-free.
func (e *Env) LeaderWindow(x int) ProcID {
	if x < 1 || x > e.n {
		panic(fmt.Sprintf("sched: Ωx set of size %d with %d processes", x, e.n))
	}
	return max(0, e.Leader()-ProcID(x-1))
}

// Observing reports whether the session records observation digests
// (Config.Observe). Shared objects whose operations observe many values per
// step can use it to skip the per-value Observe calls entirely when the
// digests are unused — e.g. a snapshot scan of n cells.
func (e *Env) Observing() bool { return e.s.cfg.Observe }

// StepCount returns the number of steps the process has executed so far.
func (e *Env) StepCount() int { return e.s.stepsOf[e.id] }

// TotalSteps returns the number of steps scheduled so far across all
// processes. Like the oracles it reads global state, so it records an
// observation (see Observe).
func (e *Env) TotalSteps() int {
	e.observeScalar(fpTagInt, uint64(e.s.steps))
	return e.s.steps
}
