package sched

import (
	"fmt"
	"iter"
)

// Direct scheduling protocol, the default: every process runs as a
// coroutine (iter.Pull) resumed by the goroutine that called Session.Run, so
// the scheduling loop never leaves that goroutine and a token handoff is a
// coroutine switch — roughly a quarter of the cost of waking a parked
// goroutine through a channel.
//
// Each coroutine is created once per session and iterates one body per run:
// it suspends at the run boundary between runs, and the first resume of a
// run doubles as the process's start grant. Crashes are synchronous — the
// dispatcher sets the crash flag and resumes the victim, StepL re-raises the
// crash sentinel, the wrapper records the terminal state, and the coroutine
// suspends back at the run boundary before the resume returns — so the
// dispatcher can never be a process, and control flow is a plain loop.
//
// Batched grants are where the protocol earns its keep: an adopted
// Decision.Plan (and an active Decision.Sprint) lets StepL consume
// consecutive self-grants entirely inside the parked process — bookkeeping
// only, no switch — and other processes' planned grants cost one switch and
// zero adversary consultations.
//
// Self-grants an adversary decides step by step are consumed in place too.
// A process that parks with no plan or sprint pending and budget left would
// only hand the token to the dispatcher for it to consult the adversary on
// exactly that state, so StepL makes the consultation itself, on its own
// stack, through the same consult helper and View the dispatcher uses. A
// plain grant of the process's own next step (Run naming it, no crashes, no
// plan) is taken with the ordinary grant bookkeeping and no switch; any
// other decision is stashed, the process yields, and the dispatcher applies
// the stash exactly as if it had consulted. Sampling adversaries re-grant
// the running process at most of their decisions, so this removes two
// coroutine switches from most sampled steps. An adversary panic raised in
// place unwinds the process's body and is turned into the run error by
// directRunBody, which sees inNext set.
//
// A coroutine can only be suspended from its own stack, so processes take
// their steps on their own execution context. Bodies that run nested
// coroutines (internal/bg's simulator threads) hand each shared step back to
// the process, which executes it on its own stack (coro.Yielder.Call).

// startCoro builds the persistent per-process coroutine. The coroutine body
// does not start until the first resume, which under this protocol is the
// process's first (start) grant.
func (s *Session) startCoro(e *Env) (func() (struct{}, bool), func()) {
	return iter.Pull(func(yield func(struct{}) bool) {
		e.yield = yield
		for {
			s.directRunBody(e)
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
// process's stack and fails the run with the error runDirect reports for a
// dispatcher-side consultation.
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

// runDirect executes one run under the direct protocol.
func (s *Session) runDirect(bodies []Proc) (res *Result, err error) {
	// One function-level recover stands in for a per-consultation
	// defer/recover around every adversary call: the inNext flag scopes it to
	// panics raised inside Adversary.Next, so dispatcher bugs still crash.
	// (A consultation made in place by a parking process panics on that
	// process's stack instead; directRunBody catches it.)
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

	budgetExhausted := false
	for {
		// Pre-committed grants (Decision.Plan) execute without consulting
		// the adversary. Consecutive self-grants never reach this loop —
		// StepL consumes them in place — so each iteration here moves the
		// token or delivers a planned crash.
		if s.planIdx < len(s.plan) {
			g := s.plan[s.planIdx]
			s.planIdx++
			if g.Crash {
				if int(g.ID) >= 0 && int(g.ID) < s.n && s.state[g.ID] == stateParked {
					s.directCrash(g.ID)
					if s.cfg.MaxCrashes > 0 && s.crashes > s.cfg.MaxCrashes {
						err := fmt.Errorf("sched: adversary crashed %d processes, limit %d",
							s.crashes, s.cfg.MaxCrashes)
						s.teardownDirect()
						return nil, err
					}
				}
				continue
			}
			if s.steps >= s.cfg.MaxSteps {
				budgetExhausted = true
				s.teardownDirect()
				break
			}
			if int(g.ID) < 0 || int(g.ID) >= s.n || s.state[g.ID] != stateParked {
				err := fmt.Errorf("sched: planned grant for process %d, which is not parked", g.ID)
				s.teardownDirect()
				return nil, err
			}
			s.grantBookkeeping(g.ID)
			if err := s.resumeDirect(g.ID); err != nil {
				return nil, err
			}
			continue
		}
		// An active sprint only falls through to the dispatcher when StepL's
		// fast path refused the grant (budget) or the process stopped being
		// parked (finished, or the plan crashed it).
		if s.sprint >= 0 {
			p := s.sprint
			if s.state[p] == stateParked {
				budgetExhausted = true
				s.teardownDirect()
				break
			}
			s.sprint = -1
		}

		// A process that parked with no plan or sprint pending has already
		// consulted the adversary in place; a decision other than its own
		// plain grant was stashed in s.dec for the dispatcher to apply,
		// exactly as if the consultation had been made here.
		if s.stashed {
			s.stashed = false
		} else {
			var done bool
			if done, budgetExhausted = s.consult(); done {
				break
			}
			if budgetExhausted {
				s.teardownDirect()
				break
			}
		}
		// dec stays valid until the grant below resumes a process, which may
		// consult in place and overwrite s.dec.
		dec := &s.dec
		for _, c := range dec.Crash {
			if int(c) < 0 || int(c) >= s.n || s.state[c] != stateParked {
				continue
			}
			s.directCrash(c)
			if s.cfg.MaxCrashes > 0 && s.crashes > s.cfg.MaxCrashes {
				err := fmt.Errorf("sched: adversary crashed %d processes, limit %d",
					s.crashes, s.cfg.MaxCrashes)
				s.teardownDirect()
				return nil, err
			}
		}
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
		if err := s.resumeDirect(run); err != nil {
			return nil, err
		}
	}
	return s.collect(budgetExhausted), nil
}

// consult is the direct protocol's one adversary consultation, made by the
// dispatcher or in place by a parking process (StepL). It consults nothing
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
	s.dec = s.adv.Next(s.view)
	s.inNext = false
	return false, false
}

// resumeDirect switches to process id's coroutine and surfaces any foreign
// panic its body raised as a run error (after tearing the run down).
func (s *Session) resumeDirect(id ProcID) error {
	s.dNext[id]()
	if s.dFail != nil {
		err := s.dFail
		s.teardownDirect()
		return err
	}
	return nil
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
		s.dNext[id]()
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
			s.dNext[id]()
		} else {
			s.state[id] = stateDone
			s.pending[id] = LabelNone
		}
		s.statuses[id] = StatusBlocked
	}
	s.dFail = nil
}
