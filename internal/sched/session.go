package sched

import (
	"errors"
	"fmt"
)

// Session is a reusable scheduler runtime: the n processes are created once,
// park between runs, and are reset through a lightweight protocol instead of
// being recreated, so back-to-back runs pay no spawn, no channel construction
// and no per-run buffer allocation. Replay engines (internal/explore) execute
// millions of short runs; respawning was their dominant cost.
//
// The lifecycle is
//
//	s, _ := NewSession(n)
//	for { res, _ := s.Run(cfg, bodies) ... }
//	s.Close()
//
// Run may be given different bodies (and a different Config) each time; only
// the process count n is fixed. Runs on one Session are deterministic exactly
// like runs on fresh runtimes: every run starts from fully reset scheduler
// state, so a Session replaying the same adversary decisions produces a
// byte-identical trace and identical outcomes.
//
// Two scheduling protocols implement the same observable semantics:
//
//   - The direct protocol, the default and the one every engine runs on,
//     runs every process as a coroutine (iter.Pull), and the scheduling
//     token travels from process to process: the process that holds it
//     decides the next grant itself and resumes the grantee directly, or
//     yields back down the chain of nested resumes to it, so a token handoff
//     is one coroutine switch and no goroutine wakeup. Consecutive
//     self-grants take no switch at all: batched grants (Decision.Plan,
//     Decision.Sprint) are consumed inside the parked process, and a
//     re-grant of the parking process's own step is taken in place. The
//     goroutine that called Run starts the run, delivers crashes and ends
//     it (see direct.go). Processes take their steps on their own
//     execution context; internal/bg's simulators do so by running their
//     threads' shared steps on the simulator's own stack.
//
//   - The rendezvous protocol (SessionOptions.Rendezvous) is the original
//     central-scheduler design: a dedicated goroutine per process, and every
//     step granted over unbuffered channels by the goroutine that called Run.
//     It is kept as the simple reference implementation: the
//     protocol-equivalence tests replay both and require byte-identical
//     traces, and explore's tests walk trees on it as the reference of the
//     direct, batched walk.
//
// The returned Result and its Outcomes and Trace slices are owned by the
// Session and overwritten by the next Run; callers that retain them across
// runs must copy. Sessions are not safe for concurrent use — one Run at a
// time — and Close must only be called between runs.
type Session struct {
	n      int
	direct bool
	envs   []*Env
	events chan event
	begin  []chan Proc

	// Direct-protocol state: the per-process coroutines (resume/stop pairs
	// from iter.Pull), the active run's bodies, and the run error a process
	// wrapper recorded when its body panicked with a foreign value.
	bodies []Proc
	dNext  []func() (struct{}, bool)
	dStop  []func()
	dFail  error
	// The token (see direct.go): hand is the process granted next, or a
	// verdict only the dispatcher acts on (handDecide and the others).
	// chainPos[i] is process i's 1-based position on the chain of nested
	// resumes, 0 when it is not on it (parked at its yield or finished);
	// depth is the chain's length. resumes counts every coroutine resume the
	// session has made, for tests.
	hand     ProcID
	chainPos []int
	depth    int
	resumes  int
	// inNext is set across direct-protocol Adversary.Next calls so a panic
	// can be attributed to the adversary by runDirect's single deferred
	// recover, or by directRunBody's when the consultation was made in place
	// (per-consultation defers were measurably hot).
	inNext bool
	// view is the direct protocol's View, built once per run and refreshed
	// (Step, Runnable) by every consultation; dec is the latest
	// consultation's decision. stashed marks a dec a process consulted in
	// place but left to the dispatcher, because it crashes processes.
	view    View
	dec     Decision
	stashed bool

	// Batched-grant state: the adopted Decision.Plan with its consumption
	// cursor, the process a Decision.Sprint keeps granting, and the
	// adversary's optional SprintObserver side.
	plan      []Grant
	planIdx   int
	sprint    ProcID
	sprintObs SprintObserver

	cfg Config    // the active run's config
	adv Adversary // the active run's adversary

	state     []procState
	statuses  []Status
	pending   []Label // label each parked process is about to execute
	stepsOf   []int
	lastLabel []Label
	crashed   []bool
	obs       []FP // per-process observation digests (Config.Observe)
	// observe gates the folds into obs: Config.Observe, switched off from a
	// Decision.Quiet consultation to the next consultation (observeFor).
	observe bool

	steps   int
	crashes int
	trace   []TraceEntry

	// res is the pooled Result handed back by Run; its slices alias the
	// session's buffers.
	res      Result
	outcomes []Outcome

	// runnableBuf backs the View.Runnable slice handed to the adversary each
	// round. Reusing it keeps the scheduling loop allocation-free; the View
	// contract already limits the slice's lifetime to the Next call.
	runnableBuf []ProcID

	closed bool
	broken bool // a runtime invariant was violated; the Session is unusable
}

// ErrClosed is returned by Session.Run after Close.
var ErrClosed = errors.New("sched: session closed")

// ErrBroken is returned by Session.Run after a run violated a runtime
// invariant (which should be impossible); the goroutine state can no longer
// be trusted, so the Session refuses further runs.
var ErrBroken = errors.New("sched: session broken by invariant violation")

// SessionOptions selects a Session's scheduling protocol without changing
// its observable behavior: runs are deterministic functions of (bodies,
// Config) under either protocol, and the protocol-equivalence tests assert
// byte-identical traces.
type SessionOptions struct {
	// Rendezvous selects the reference central-scheduler protocol: a
	// goroutine per process, every step granted over unbuffered channels,
	// two goroutine switches per step. It is kept as the reference of
	// differential tests; the default is the direct protocol.
	Rendezvous bool

	// Direct is ignored: the direct protocol is the default. The field
	// remains only so existing callers that set it keep compiling.
	Direct bool
}

// NewSession builds a reusable runtime for n processes on the direct
// protocol.
func NewSession(n int) (*Session, error) {
	return NewSessionWith(n, SessionOptions{})
}

// NewSessionWith is NewSession with explicit options.
func NewSessionWith(n int, opts SessionOptions) (*Session, error) {
	if n <= 0 {
		return nil, ErrNoProcs
	}
	s := &Session{
		n:      n,
		direct: !opts.Rendezvous,

		state:     make([]procState, n),
		statuses:  make([]Status, n),
		pending:   make([]Label, n),
		stepsOf:   make([]int, n),
		lastLabel: make([]Label, n),
		crashed:   make([]bool, n),
		obs:       make([]FP, n),

		sprint: -1,

		outcomes:    make([]Outcome, n),
		runnableBuf: make([]ProcID, 0, n),
	}
	s.envs = make([]*Env, n)
	if s.direct {
		s.bodies = make([]Proc, n)
		s.dNext = make([]func() (struct{}, bool), n)
		s.dStop = make([]func(), n)
		s.chainPos = make([]int, n)
		for i := range s.envs {
			s.envs[i] = &Env{s: s, id: ProcID(i), n: n}
			s.dNext[i], s.dStop[i] = s.startCoro(s.envs[i])
		}
		return s, nil
	}
	s.events = make(chan event)
	s.begin = make([]chan Proc, n)
	for i := range s.envs {
		s.envs[i] = &Env{
			s:     s,
			id:    ProcID(i),
			n:     n,
			grant: make(chan grantMsg),
		}
		s.begin[i] = make(chan Proc)
		go s.loop(s.envs[i], s.begin[i])
	}
	return s, nil
}

// N returns the fixed process count of the session.
func (s *Session) N() int { return s.n }

// loop is the persistent per-process goroutine of the rendezvous protocol:
// it receives one body per run, wraps it (park at the synthetic start step,
// recover the crash sentinel), and parks again for the next run. It exits
// when Close closes the begin channel.
func (s *Session) loop(e *Env, begin <-chan Proc) {
	for body := range begin {
		s.centralRunBody(e, body)
	}
}

// centralRunBody executes one run's body under the rendezvous protocol:
// every lifecycle event is reported to the coordinator over the events
// channel.
func (s *Session) centralRunBody(e *Env, body Proc) {
	defer func() {
		r := recover()
		switch {
		case r == nil:
			s.events <- event{id: e.id, kind: evDone}
		case IsCrash(r):
			s.events <- event{id: e.id, kind: evDone, crashed: true}
		default:
			s.events <- event{id: e.id, kind: evDone, failure: r}
		}
	}()
	// Park at a synthetic "(start)" step before running the body, so even
	// body prologues execute one at a time under the scheduler token: the
	// single-runner invariant holds from the first instruction.
	e.StepL(LabelStart)
	body(e)
}

// Healthy reports whether the session can still run: it is neither closed
// nor broken by a runtime invariant violation. Session pools (the exploredd
// daemon's warm-lease source) use it to decide between reusing a returned
// session and discarding it.
func (s *Session) Healthy() bool { return !s.closed && !s.broken }

// Close terminates the session's process coroutines (or goroutines, under
// the rendezvous protocol). It is idempotent. Close must not be called while
// a Run is in progress.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.direct {
		for _, stop := range s.dStop {
			stop()
		}
		return
	}
	for _, ch := range s.begin {
		close(ch)
	}
}

// reset rewinds all per-run state so the next run starts from a state
// indistinguishable from a fresh runtime's.
func (s *Session) reset(cfg Config, adv Adversary) {
	// obs is only ever written under cfg.Observe (see Observe), so when the
	// previous run didn't observe, the slots are already zero. Under the
	// direct protocol, state/pending are rewritten by runDirect's prologue
	// and every process's status is terminally written each run (body return,
	// crash, or teardown), so those clears are skipped too.
	clearObs := s.cfg.Observe
	s.cfg = cfg
	s.adv = adv
	s.observe = cfg.Observe
	for i := 0; i < s.n; i++ {
		if !s.direct {
			s.state[i] = 0
			s.statuses[i] = 0
			s.pending[i] = LabelNone
		}
		s.stepsOf[i] = 0
		s.lastLabel[i] = LabelNone
		s.crashed[i] = false
		if clearObs {
			s.obs[i] = FP{}
		}
		e := s.envs[i]
		e.decided = false
		e.decision = nil
		e.crashNext = false
	}
	s.steps = 0
	s.crashes = 0
	s.trace = s.trace[:0]
	s.plan = s.plan[:0]
	s.planIdx = 0
	s.sprint = -1
	s.sprintObs, _ = adv.(SprintObserver)
	s.dFail = nil
}

// Run executes one run of the given bodies (one per session process) under
// cfg and returns the pooled per-process outcomes. It returns an error if a
// body panics with a non-crash value, or if the adversary misbehaves
// (crashes more than MaxCrashes processes when that bound is set); the
// session stays usable after such errors.
func (s *Session) Run(cfg Config, bodies []Proc) (*Result, error) {
	switch {
	case s.closed:
		return nil, ErrClosed
	case s.broken:
		return nil, ErrBroken
	case len(bodies) != s.n:
		return nil, fmt.Errorf("sched: session has %d processes, got %d bodies", s.n, len(bodies))
	}
	for i, b := range bodies {
		if b == nil {
			return nil, fmt.Errorf("sched: body %d is nil", i)
		}
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = NewRandom(cfg.Seed)
	}
	s.reset(cfg, adv)
	if s.direct {
		return s.runDirect(bodies)
	}
	return s.runCentral(bodies)
}

// collect assembles the pooled Result after a completed run.
func (s *Session) collect(budgetExhausted bool) *Result {
	res := &s.res
	*res = Result{
		Outcomes:        s.outcomes,
		Steps:           s.steps,
		Crashes:         s.crashes,
		BudgetExhausted: budgetExhausted,
		Trace:           s.trace,
	}
	for i := range s.outcomes {
		e := s.envs[i]
		s.outcomes[i] = Outcome{
			Status:    s.statuses[i],
			Decided:   e.decided,
			Value:     e.decision,
			Steps:     s.stepsOf[i],
			LastLabel: s.lastLabel[i],
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// Central (rendezvous) protocol: the reference implementation.

// runCentral executes one run with the scheduling loop on the calling
// goroutine, granting every step over the events/grant rendezvous.
func (s *Session) runCentral(bodies []Proc) (*Result, error) {
	// Kick every goroutine with its body for this run. Each parks at the
	// synthetic start step before touching the body, so the first n events
	// are exactly the n start parks.
	for i, body := range bodies {
		s.begin[i] <- body
	}
	for parked := 0; parked < s.n; parked++ {
		s.consume(<-s.events)
	}

	view := View{
		Pending: s.pending,
		Crashed: s.crashed,
		StepsOf: s.stepsOf,
	}
	if s.cfg.Observe {
		view.Obs = s.obs
	}

	budgetExhausted := false
	for {
		// Pre-committed grants (Decision.Plan) execute before the adversary
		// is consulted again, each behind the same budget check a consulted
		// round would make.
		if s.planIdx < len(s.plan) {
			g := s.plan[s.planIdx]
			s.planIdx++
			if g.Crash {
				if int(g.ID) >= 0 && int(g.ID) < s.n && s.state[g.ID] == stateParked {
					s.crash(g.ID)
					if s.cfg.MaxCrashes > 0 && s.crashes > s.cfg.MaxCrashes {
						s.reapAll(StatusBlocked)
						return nil, fmt.Errorf("sched: adversary crashed %d processes, limit %d",
							s.crashes, s.cfg.MaxCrashes)
					}
				}
				continue
			}
			if s.steps >= s.cfg.MaxSteps {
				budgetExhausted = true
				s.reapAll(StatusBlocked)
				break
			}
			if int(g.ID) < 0 || int(g.ID) >= s.n || s.state[g.ID] != stateParked {
				s.reapAll(StatusBlocked)
				return nil, fmt.Errorf("sched: planned grant for process %d, which is not parked", g.ID)
			}
			if err := s.step(g.ID); err != nil {
				s.reapAll(StatusBlocked)
				return nil, err
			}
			continue
		}
		// An active sprint keeps granting its process until it stops being
		// parked (finished or crashed) or the budget runs out.
		if s.sprint >= 0 {
			p := s.sprint
			if s.state[p] == stateParked {
				if s.steps >= s.cfg.MaxSteps {
					budgetExhausted = true
					s.reapAll(StatusBlocked)
					break
				}
				if s.sprintObs != nil {
					s.sprintObs.SprintStep(p, s.pending[p])
				}
				if err := s.step(p); err != nil {
					s.reapAll(StatusBlocked)
					return nil, err
				}
				continue
			}
			s.sprint = -1
		}

		runnable := s.runnable()
		if len(runnable) == 0 {
			break
		}
		if s.steps >= s.cfg.MaxSteps {
			budgetExhausted = true
			s.reapAll(StatusBlocked)
			break
		}

		view.Step = s.steps
		view.Runnable = runnable
		dec, err := s.nextDecision(&view)
		if err != nil {
			s.reapAll(StatusBlocked)
			return nil, err
		}
		s.observeFor(&dec)

		for _, c := range dec.Crash {
			if int(c) < 0 || int(c) >= s.n || s.state[c] != stateParked {
				continue
			}
			s.crash(c)
			if s.cfg.MaxCrashes > 0 && s.crashes > s.cfg.MaxCrashes {
				s.reapAll(StatusBlocked)
				return nil, fmt.Errorf("sched: adversary crashed %d processes, limit %d",
					s.crashes, s.cfg.MaxCrashes)
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
		if err := s.step(run); err != nil {
			s.reapAll(StatusBlocked)
			return nil, err
		}
	}
	return s.collect(budgetExhausted), nil
}

// consume folds one event into the session state.
func (s *Session) consume(ev event) {
	switch ev.kind {
	case evPark:
		s.state[ev.id] = stateParked
		s.pending[ev.id] = ev.label
	case evDone:
		s.state[ev.id] = stateDone
		s.pending[ev.id] = LabelNone
		switch {
		case ev.crashed:
			s.statuses[ev.id] = StatusCrashed
		case s.envs[ev.id].decided:
			s.statuses[ev.id] = StatusDecided
		default:
			s.statuses[ev.id] = StatusHalted
		}
	}
}

// nextDecision consults the adversary, converting a panic raised inside
// Next into a run error, the same error runDirect reports: both protocols
// fail such runs identically, every process reaped and re-parked.
func (s *Session) nextDecision(v *View) (dec Decision, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: adversary panicked: %v", r)
		}
	}()
	return s.adv.Next(v), nil
}

// observeFor applies a consulted decision's observation mode to the grants
// it makes, under Config.Observe: Decision.Quiet switches the folds off
// until the next consultation, and Decision.Obs reloads the digests first.
// Both protocols call it as soon as the adversary answers; no process runs
// between the answer and the decision's first grant.
func (s *Session) observeFor(dec *Decision) {
	if !s.cfg.Observe {
		return
	}
	s.observe = !dec.Quiet
	if dec.Obs != nil {
		copy(s.obs, *dec.Obs)
	}
}

// grantBookkeeping records the grant of one step to process id: the label it
// was parked on becomes its last label, counted unless it is the synthetic
// start grant, and traced always, so the trace replays round for round as a
// run-only script (explore.ReplayScript).
func (s *Session) grantBookkeeping(id ProcID) {
	label := s.pending[id]
	s.lastLabel[id] = label
	if label != LabelStart {
		s.steps++
		s.stepsOf[id]++
	}
	if s.cfg.TraceCapacity > 0 && len(s.trace) < s.cfg.TraceCapacity {
		s.trace = append(s.trace, TraceEntry{Proc: id, Label: label})
	}
	s.state[id] = stateRunning
}

// selfGrant is grantBookkeeping for a step consumed in place by StepL's
// batched-grant fast path: the process never parks, so the label comes from
// the caller and the state stays running.
func (s *Session) selfGrant(id ProcID, label Label) {
	s.lastLabel[id] = label
	if label != LabelStart {
		s.steps++
		s.stepsOf[id]++
	}
	if s.cfg.TraceCapacity > 0 && len(s.trace) < s.cfg.TraceCapacity {
		s.trace = append(s.trace, TraceEntry{Proc: id, Label: label})
	}
}

// step grants one step to process id and waits for it to park again or
// finish. It returns an error if the body panicked with a non-crash value.
func (s *Session) step(id ProcID) error {
	s.grantBookkeeping(id)
	s.envs[id].grant <- grantMsg{}
	ev := <-s.events
	s.consume(ev)
	if ev.kind == evDone && ev.failure != nil {
		return fmt.Errorf("sched: process %d panicked: %v", ev.id, ev.failure)
	}
	if ev.id != id && s.state[id] == stateRunning {
		// A granted process must be the next to report: the token design
		// guarantees it. Anything else is a runtime invariant violation.
		s.broken = true
		return fmt.Errorf("sched: process %d reported while %d held the token", ev.id, id)
	}
	return nil
}

// crash delivers a crash to the parked process id and waits for its wrapper
// to acknowledge. The process's pending label is preserved in lastLabel so
// reports can show what it was about to execute.
func (s *Session) crash(id ProcID) {
	s.lastLabel[id] = s.pending[id]
	s.crashed[id] = true
	s.crashes++
	s.state[id] = stateRunning
	s.envs[id].grant <- grantMsg{crash: true}
	for {
		ev := <-s.events
		s.consume(ev)
		if ev.id == id && ev.kind == evDone {
			return
		}
	}
}

// reapAll crash-unwinds every parked process so every goroutine re-parks for
// the next run, then overwrites their status with the given terminal status.
func (s *Session) reapAll(status Status) {
	for i := range s.envs {
		if s.state[i] != stateParked {
			continue
		}
		id := ProcID(i)
		s.lastLabel[id] = s.pending[id]
		s.state[id] = stateRunning
		s.envs[id].grant <- grantMsg{crash: true}
		for {
			ev := <-s.events
			s.consume(ev)
			if ev.id == id && ev.kind == evDone {
				break
			}
		}
		s.statuses[id] = status
	}
}

func (s *Session) runnable() []ProcID {
	ids := s.runnableBuf[:0]
	for i, st := range s.state {
		if st == stateParked {
			ids = append(ids, ProcID(i))
		}
	}
	s.runnableBuf = ids
	return ids
}

func (s *Session) firstParked() ProcID {
	for i, st := range s.state {
		if st == stateParked {
			return ProcID(i)
		}
	}
	return -1
}
