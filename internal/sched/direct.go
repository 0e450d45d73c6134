package sched

import (
	"fmt"
	"iter"
)

// Direct scheduling protocol, the default: every process runs as a
// coroutine (iter.Pull), and the scheduling token travels from process to
// process. The process that holds the token makes the next scheduling
// decision itself, on its own stack, when it parks (Env.StepL) or when a
// process it resumed finishes, and passes the token on: it resumes the
// grantee directly when the grantee is parked at its yield, or yields down
// the chain of nested resumes when the grantee is below it. A token handoff
// is therefore one coroutine switch (symmetric transfer, after de Moura and
// Ierusalimschy, "Revisiting Coroutines", TOPLAS 2009), where a bounce
// through a central dispatcher cost two.
//
// The chain is the stack of processes that resumed one another: the
// goroutine that called Session.Run (the dispatcher) resumes the first
// grantee, which may resume a second, and so on. Each process is on it at
// most once, so its depth is at most n. A process on the chain is
// suspended inside a resume, not at its yield, and can only be reached by
// yielding back to it; hand carries the grant down. A finishing process
// leaves the decision to its caller (handDecide) rather than unwinding to
// the dispatcher.
//
// The dispatcher keeps what needs every process at its yield or the run
// over: the run's first decision, crash delivery (Decision.Crash lists and
// planned crashes), the end of the run and teardown. When the decision
// calls for any of these, or a process fails the run (dFail), the token
// unwinds the whole chain to the dispatcher, which makes the decision again
// with the same function; a decision made in place that stopped short
// consumed nothing but the adversary's answer, which waits in s.dec
// (stashed). Every yield re-checks crashNext, so a process the dispatcher
// resumes to crash unwinds from wherever it parked.
//
// Each coroutine is created once per session and iterates one body per run:
// it suspends at the run boundary between runs, and the first resume of a
// run doubles as the process's start grant. Crashes are synchronous — the
// dispatcher sets the crash flag and resumes the victim, StepL re-raises the
// crash sentinel, the wrapper records the terminal state, and the coroutine
// suspends back at the run boundary before the resume returns.
//
// Batched grants still take no switch at all: an adopted Decision.Plan
// (and an active Decision.Sprint) lets StepL consume consecutive
// self-grants inside the parked process — bookkeeping only — and other
// processes' planned grants cost one switch and zero adversary
// consultations. A decision that re-grants the parking process is taken in
// place too, so sampling adversaries, which re-grant the running process at
// most of their decisions, pay no switch for those steps. An adversary
// panic raised in place unwinds the deciding process's body and is turned
// into the run error by directRunBody, which sees inNext set.
//
// A coroutine can only be suspended from its own stack, so processes take
// their steps on their own execution context. Bodies that run nested
// coroutines (internal/bg's simulator threads) hand each shared step back to
// the process, which executes it on its own stack (coro.Yielder.Call).

// Values of Session.hand other than a process id: handDecide asks whoever
// regains the token to make the next decision (a process finished); the
// others are decide's verdicts that only the dispatcher can act on.
const (
	handDecide    ProcID = -1 - iota
	handDispatch         // crashes to deliver, or the run failed (dFail)
	handDone             // no process is parked: the run is complete
	handExhausted        // the step budget is spent
)

// startCoro builds the persistent per-process coroutine. The coroutine body
// does not start until the first resume, which under this protocol is the
// process's first (start) grant. A finished body leaves the next decision to
// whoever resumed it.
func (s *Session) startCoro(e *Env) (func() (struct{}, bool), func()) {
	return iter.Pull(func(yield func(struct{}) bool) {
		e.yield = yield
		for {
			s.directRunBody(e)
			s.hand = handDecide
			if !yield(struct{}{}) {
				return // session closed
			}
		}
	})
}

// directRunBody executes one run's body, recording the terminal state the
// rendezvous protocol's wrapper defer reports: crash sentinels mark the process
// crashed, foreign panics fail the run (the session stays usable). A panic
// raised by an adversary consulted in place (inNext set) unwinds this
// process's stack and fails the run with the error a consultation by the
// dispatcher reports.
func (s *Session) directRunBody(e *Env) {
	defer func() {
		r := recover()
		s.state[e.id] = stateDone
		s.pending[e.id] = LabelNone
		switch {
		case r == nil:
			if e.decided {
				s.statuses[e.id] = StatusDecided
			} else {
				s.statuses[e.id] = StatusHalted
			}
		case IsCrash(r):
			s.statuses[e.id] = StatusCrashed
		default:
			if e.decided {
				s.statuses[e.id] = StatusDecided
			} else {
				s.statuses[e.id] = StatusHalted
			}
			if s.inNext {
				s.inNext = false
				s.dFail = fmt.Errorf("sched: adversary panicked: %v", r)
			} else {
				s.dFail = fmt.Errorf("sched: process %d panicked: %v", e.id, r)
			}
		}
	}()
	s.bodies[e.id](e)
}

// runDirect executes one run under the direct protocol. It regains the token
// only when the chain unwinds to it: to deliver crashes, to end or tear down
// the run, or to decide after a process it resumed finished.
func (s *Session) runDirect(bodies []Proc) (res *Result, err error) {
	// One function-level recover stands in for a per-consultation
	// defer/recover around every adversary call: the inNext flag scopes it to
	// panics raised inside Adversary.Next, so dispatcher bugs still crash.
	// (A consultation made in place by a process panics on that process's
	// stack instead; directRunBody catches it.)
	defer func() {
		if r := recover(); r != nil {
			if !s.inNext {
				panic(r)
			}
			s.inNext = false
			s.teardownDirect()
			res, err = nil, fmt.Errorf("sched: adversary panicked: %v", r)
		}
	}()
	copy(s.bodies, bodies)
	// The prologue barrier of the rendezvous protocol is a no-op here: every
	// process starts parked on the synthetic start label, granted when the
	// adversary first schedules it.
	for i := 0; i < s.n; i++ {
		s.state[i] = stateParked
		s.pending[i] = LabelStart
	}
	s.view = View{
		Pending: s.pending,
		Crashed: s.crashed,
		StepsOf: s.stepsOf,
	}
	if s.cfg.Observe {
		s.view.Obs = s.obs
	}
	for {
		h := s.decide(true)
		if h >= 0 {
			s.hand = h
			s.resume(h)
		}
		if s.dFail != nil {
			err := s.dFail
			s.teardownDirect()
			return nil, err
		}
		switch h {
		case handDone:
			return s.collect(false), nil
		case handExhausted:
			s.teardownDirect()
			return s.collect(true), nil
		}
	}
}

// decide makes the run's next scheduling decision, the one decision function
// of the direct protocol: the next planned grant, the next step of an active
// sprint, or an adversary consultation and the application of its answer.
// It returns the grantee, its grant bookkeeping done, or one of the hand
// verdicts. The dispatcher calls it with atDispatcher set and delivers
// crashes itself; a process deciding in place (handoff) stops short of a
// crash with handDispatch, leaving a planned crash unconsumed and a
// consulted decision stashed, so that the dispatcher, deciding again,
// resumes exactly where the process stopped. The budget and parked checks
// that end a run consume nothing, so they too give the same verdict twice.
func (s *Session) decide(atDispatcher bool) ProcID {
	for {
		// Pre-committed grants (Decision.Plan) execute without consulting
		// the adversary.
		if s.planIdx < len(s.plan) {
			g := s.plan[s.planIdx]
			if g.Crash {
				if !atDispatcher {
					return handDispatch
				}
				s.planIdx++
				if s.deliverCrash(g.ID) {
					return handDispatch
				}
				continue
			}
			if s.steps >= s.cfg.MaxSteps {
				return handExhausted
			}
			if int(g.ID) < 0 || int(g.ID) >= s.n || s.state[g.ID] != stateParked {
				s.dFail = fmt.Errorf("sched: planned grant for process %d, which is not parked", g.ID)
				return handDispatch
			}
			s.planIdx++
			s.grantBookkeeping(g.ID)
			return g.ID
		}
		// An active sprint keeps granting its process until it stops being
		// parked (finished or crashed) or the budget runs out. StepL takes
		// the sprinted steps in place; they reach here only when a plan
		// interposed or the budget is spent.
		if p := s.sprint; p >= 0 {
			if s.state[p] == stateParked {
				if s.steps >= s.cfg.MaxSteps {
					return handExhausted
				}
				if s.sprintObs != nil {
					s.sprintObs.SprintStep(p, s.pending[p])
				}
				s.grantBookkeeping(p)
				return p
			}
			s.sprint = -1
		}

		if !s.stashed {
			if done, exhausted := s.consult(); done {
				return handDone
			} else if exhausted {
				return handExhausted
			}
		}
		// dec stays valid until a grantee is resumed, which may consult in
		// place and overwrite s.dec.
		dec := &s.dec
		if len(dec.Crash) > 0 {
			if !atDispatcher {
				s.stashed = true
				return handDispatch
			}
			for _, c := range dec.Crash {
				if s.deliverCrash(c) {
					return handDispatch
				}
			}
		}
		s.stashed = false
		if len(dec.Plan) > 0 {
			s.plan = append(s.plan[:0], dec.Plan...)
			s.planIdx = 0
		}
		run := dec.Run
		if run < 0 && len(dec.Crash) > 0 {
			// Crash-only round: no step, re-consult the adversary.
			continue
		}
		if int(run) < 0 || int(run) >= s.n || s.state[run] != stateParked {
			run = s.firstParked()
			if run < 0 {
				continue
			}
		}
		if dec.Sprint {
			s.sprint = run
		}
		s.grantBookkeeping(run)
		return run
	}
}

// handoff passes the token on from process e, which has parked (StepL) and
// whose hand holds the decision it made, until the token comes back to e.
// It resumes grantees parked at their yields, decides again when one of
// them finishes, and yields down the chain when the grantee is below e or
// the dispatcher must act. A resume at one of e's yields either grants e
// its step or, from the dispatcher, delivers a crash.
func (s *Session) handoff(e *Env) {
	for {
		if h := s.hand; s.dFail == nil {
			switch {
			case h == e.id:
				return
			case h == handDecide:
				s.hand = s.decide(false)
				continue
			case h >= 0 && s.chainPos[h] == 0:
				s.resume(h)
				continue
			}
		}
		if !e.yield(struct{}{}) {
			// The session was closed while we were parked mid-run (a
			// contract violation, but don't run the body further): unwind.
			panic(crashSentinel{id: e.id})
		}
		if e.crashNext {
			e.crashNext = false
			panic(crashSentinel{id: e.id})
		}
	}
}

// consult is the direct protocol's one adversary consultation, made by the
// dispatcher or in place by a process holding the token. It consults nothing
// and reports done when no process is parked (the run is complete), or
// exhausted when the step budget is spent; otherwise it leaves the
// adversary's decision on the current View in s.dec. inNext marks the Next
// call so a panic raised inside it is attributed to the adversary, on
// whichever stack it unwinds.
func (s *Session) consult() (done, exhausted bool) {
	runnable := s.runnable()
	if len(runnable) == 0 {
		return true, false
	}
	if s.steps >= s.cfg.MaxSteps {
		return false, true
	}
	s.view.Step = s.steps
	s.view.Runnable = runnable
	s.inNext = true
	s.dec = s.adv.Next(&s.view)
	s.inNext = false
	s.observeFor(&s.dec)
	return false, false
}

// resume switches to process id's coroutine, pushing it on the chain, and
// returns when it yields back: it parked, finished, or passes the token
// further down.
func (s *Session) resume(id ProcID) {
	s.resumes++
	s.depth++
	s.chainPos[id] = s.depth
	s.dNext[id]()
	s.chainPos[id] = 0
	s.depth--
}

// deliverCrash crashes id if it is parked, from the dispatcher, and reports
// whether that broke the MaxCrashes bound; the run error is then in dFail.
func (s *Session) deliverCrash(id ProcID) bool {
	if int(id) < 0 || int(id) >= s.n || s.state[id] != stateParked {
		return false
	}
	s.directCrash(id)
	if s.cfg.MaxCrashes > 0 && s.crashes > s.cfg.MaxCrashes {
		s.dFail = fmt.Errorf("sched: adversary crashed %d processes, limit %d",
			s.crashes, s.cfg.MaxCrashes)
		return true
	}
	return false
}

// directCrash crashes the parked process id. A process that has started its
// body (it was granted at least once this run, so lastLabel is set) is
// resumed with the crash flag and unwinds to the run boundary before the
// call returns; a process still parked on its start grant has executed
// nothing — there is no stack to unwind — and its terminal state is recorded
// directly, with identical observables.
func (s *Session) directCrash(id ProcID) {
	started := s.lastLabel[id] != LabelNone
	s.lastLabel[id] = s.pending[id]
	s.crashed[id] = true
	s.crashes++
	if started {
		s.envs[id].crashNext = true
		s.resume(id)
		return
	}
	s.state[id] = stateDone
	s.pending[id] = LabelNone
	s.statuses[id] = StatusCrashed
}

// teardownDirect ends the run early: every parked process is reaped as
// StatusBlocked (started ones are crash-unwound to the run boundary), and
// the batched-grant state and any stashed decision are dropped.
func (s *Session) teardownDirect() {
	s.plan = s.plan[:0]
	s.planIdx = 0
	s.sprint = -1
	s.stashed = false
	for i := 0; i < s.n; i++ {
		if s.state[i] != stateParked {
			continue
		}
		id := ProcID(i)
		started := s.lastLabel[id] != LabelNone
		s.lastLabel[id] = s.pending[id]
		if started {
			s.envs[id].crashNext = true
			s.resume(id)
		} else {
			s.state[id] = stateDone
			s.pending[id] = LabelNone
		}
		s.statuses[id] = StatusBlocked
	}
	s.dFail = nil
}
