// Package bg implements the Borowsky-Gafni simulation and the engine shared
// by the paper's extended simulations.
//
// A run has n' simulators q_0..q_{n'-1} (scheduler processes), each locally
// executing one coroutine thread per simulated process p_0..p_{n-1} in a fair
// round-robin (§2.4). Simulators cooperate through:
//
//   - MEM, a snapshot object with one component per simulator holding its
//     local copy of the simulated memory with per-cell sequence numbers
//     (Figure 2 / sim_write, Figure 3 / sim_snapshot);
//   - one agreement object per (simulated process, snapshot sequence number)
//     pair, which makes every simulator return the same value for the same
//     simulated snapshot (Figure 3, lines 05-06);
//   - one agreement object per simulated x_cons object (Figure 4 /
//     sim_x_cons_propose).
//
// The agreement objects are pluggable: safe_agreement (Figure 1) yields the
// classic BG simulation and the Section 3 forward simulation, while
// x_safe_agreement (Figure 6) yields the Section 4 reverse simulation and
// the Section 5.5 colored simulation. The mutex-1 discipline (a simulator is
// engaged in at most one agreement propose at a time) and the mutex-2
// discipline (at most one simulated x_cons_propose at a time) are enforced
// with thread-local cooperative locks, exactly as in the paper.
package bg

import (
	"fmt"
	"strconv"

	"mpcn/internal/algorithms"
	"mpcn/internal/coro"
	"mpcn/internal/object"
	"mpcn/internal/sched"
	"mpcn/internal/snapshot"
)

// Agreement is the abstraction both safe_agreement and x_safe_agreement
// satisfy: one-shot propose per simulator, idempotent non-blocking decide
// probe. Termination characteristics differ (that is the point of the
// paper), but the engine is agnostic.
type Agreement interface {
	Propose(e *sched.Env, v any)
	TryDecide(e *sched.Env) (any, bool)
	// Reset returns the object to its freshly constructed state, so an
	// engine reused across runs keeps its agreement objects.
	Reset()
}

// AgreementProvider constructs the shared agreement objects of a run.
type AgreementProvider func(name string) Agreement

// Config parameterizes one simulation run.
type Config struct {
	// Alg is the simulated algorithm (designed for ASM(n, t, x)).
	Alg algorithms.Algorithm
	// Inputs are the simulated processes' proposals; n = len(Inputs).
	Inputs []any
	// Simulators is n', the number of simulating processes.
	Simulators int
	// SourceX is the consensus number x of the simulated model's objects;
	// the algorithm's declared port sets are validated against it. Use 1
	// for read/write-only source algorithms.
	SourceX int
	// NewAgreement builds the shared agreement objects. nil defaults to
	// safe_agreement via the caller's choice — the engine requires it
	// explicitly to keep the simulation's resilience assumptions visible.
	NewAgreement AgreementProvider
	// Colored selects the §5.5 decision rule: simulators claim distinct
	// simulated decisions through test&set objects instead of adopting the
	// first decision seen.
	Colored bool
	// RunToCompletion keeps every simulator simulating after it has decided,
	// as the paper's liveness lemmas describe ("each correct simulator
	// computes the decision value of at least n-t' simulated processes",
	// Lemmas 2 and 8). Simulators then only stop when every thread is done,
	// so runs with permanently blocked simulated processes end on the step
	// budget; the per-simulator completion counts are in Result.Completed.
	RunToCompletion bool
	// Sched configures the underlying scheduler run (adversary, budget...).
	Sched sched.Config
}

// Result combines the scheduler outcome with simulation-level bookkeeping.
type Result struct {
	// Sched is the raw scheduler result (one outcome per simulator).
	Sched *sched.Result
	// SimulatorDecisions[i] is simulator i's decision (nil if none).
	SimulatorDecisions []any
	// ClaimedProc[i] is the simulated process whose decision simulator i
	// adopted (-1 if none). For colored runs the claims are distinct.
	ClaimedProc []int
	// SimOutputs is the per-simulated-process output vector induced by the
	// simulators' claims (nil entries undecided); meaningful for colored
	// runs, where outputs are per-process. Colorless harnesses validate the
	// simulators' decision multiset instead.
	SimOutputs []any
	// Completed[i] is the number of simulated processes whose decision
	// simulator i computed — the quantity bounded from below by Lemmas 2
	// and 8. Without RunToCompletion a simulator stops at its first usable
	// decision, so the counts are then typically 1.
	Completed []int
}

// memCell is one simulated memory cell as seen by one simulator: the last
// written value and its sequence number (Figure 2).
type memCell struct {
	val any
	sn  int
}

// memRow is one simulator's published copy of the simulated memory: the
// component it writes to MEM.
type memRow []memCell

// Fingerprint implements sched.Fingerprinter so MEM's components fold
// without fmt formatting, cell by cell.
func (r memRow) Fingerprint(h *sched.FP) {
	h.Int(len(r))
	for i := range r {
		h.Value(r[i].val)
		h.Int(r[i].sn)
	}
}

// agSlot is one agreement object of the engine's tables with the run that
// last used it: an object a run touches for the first time is reset then,
// so every run meets it freshly constructed.
type agSlot struct {
	ag  Agreement
	run int
}

// Engine is the shared state of a simulation: the MEM snapshot, the
// agreement objects, the simulators' local state and their threads. New
// builds it for one run; Reset returns it to its freshly constructed state,
// so a driver that runs many simulations of one configuration builds it
// once. The simulator threads are coroutines that park at the end of every
// run; Run ends them before it returns, and a driver of the Bodies ends them
// with Close.
type Engine struct {
	cfg   Config
	n     int // simulated processes
	ports [][]int

	mem *snapshot.Primitive[memRow]
	// snapAG[j][snapsn-1] is SAFE_AG[j, snapsn] (Figure 3) and xconsAG[a]
	// is XSAFE_AG[a] (Figure 4). Each is built and named on its first use
	// by any run and reset on its first use by each later one.
	snapAG  [][]agSlot
	xconsAG []agSlot
	tas     []*object.TestAndSet // colored decision claiming (§5.5)
	run     int                  // the current run: 1 for New's, one more per Reset

	decisions []any
	claims    []int
	completed []int

	sims   []*simulator
	bodies []sched.Proc

	// onSnapshot, when non-nil, observes every value returned by a
	// simulated snapshot: simulator i obtained val for the snapsn-th
	// mem.snapshot() of simulated process j. Used by tests to check
	// Lemmas 3 and 9 (all simulators return the same value for the same
	// simulated snapshot invocation).
	onSnapshot func(i, j, snapsn int, val []any)
	// onWrite, when non-nil, observes every simulated write: simulator i
	// performed the sn-th mem[j].write(val) on behalf of process j. Used by
	// tests to check Lemma 6/11's premise that every simulator simulates
	// each process identically (same write sequence at every simulator).
	onWrite func(i, j, sn int, val any)
}

// New validates cfg and builds the engine for one run: Run it, or drive its
// Bodies and Close it when done. To run it again, see Reset.
func New(cfg Config) (*Engine, error) {
	n := len(cfg.Inputs)
	if n == 0 {
		return nil, fmt.Errorf("bg: no simulated inputs")
	}
	if cfg.Simulators < 1 {
		return nil, fmt.Errorf("bg: need at least one simulator, got %d", cfg.Simulators)
	}
	if cfg.Alg == nil {
		return nil, fmt.Errorf("bg: nil algorithm")
	}
	if cfg.NewAgreement == nil {
		return nil, fmt.Errorf("bg: nil agreement provider")
	}
	if cfg.SourceX < 1 {
		return nil, fmt.Errorf("bg: SourceX must be >= 1, got %d", cfg.SourceX)
	}
	if err := cfg.Alg.Requires(n, cfg.SourceX); err != nil {
		return nil, err
	}
	ports := cfg.Alg.Objects(n)
	for a, ps := range ports {
		if len(ps) > cfg.SourceX {
			return nil, fmt.Errorf("bg: simulated object %d has %d ports, source x = %d",
				a, len(ps), cfg.SourceX)
		}
		for _, p := range ps {
			if p < 0 || p >= n {
				return nil, fmt.Errorf("bg: simulated object %d port %d out of range", a, p)
			}
		}
	}
	if cfg.Colored && n < cfg.Simulators {
		return nil, fmt.Errorf("bg: colored simulation needs n >= n' (n=%d, n'=%d)",
			n, cfg.Simulators)
	}

	r := &Engine{
		cfg:       cfg,
		n:         n,
		ports:     ports,
		mem:       snapshot.NewPrimitive[memRow]("MEM", cfg.Simulators),
		snapAG:    make([][]agSlot, n),
		xconsAG:   make([]agSlot, len(ports)),
		run:       1,
		decisions: make([]any, cfg.Simulators),
		claims:    make([]int, cfg.Simulators),
		completed: make([]int, cfg.Simulators),
		sims:      make([]*simulator, cfg.Simulators),
		bodies:    make([]sched.Proc, cfg.Simulators),
	}
	for i := range r.claims {
		r.claims[i] = -1
	}
	if cfg.Colored {
		r.tas = make([]*object.TestAndSet, n)
		for j := range r.tas {
			r.tas[j] = object.NewTestAndSet(fmt.Sprintf("T&S[%d]", j))
		}
	}
	for i := range r.sims {
		s := r.newSimulator(i)
		r.sims[i] = s
		r.bodies[i] = func(e *sched.Env) { r.simulate(s, e) }
	}
	return r, nil
}

// Reset returns the engine to its freshly constructed state for another
// run: MEM cleared, every agreement object as if new, no decisions, claims
// or completions. The simulator threads keep the coroutines they parked on
// at the end of the last run.
func (r *Engine) Reset() {
	r.run++
	r.mem.Reset()
	for _, t := range r.tas {
		t.Reset()
	}
	clear(r.decisions)
	for i := range r.claims {
		r.claims[i] = -1
	}
	clear(r.completed)
}

// Close ends the simulator threads' coroutines, which every run leaves
// parked. The engine stays usable: a later run starts new ones.
func (r *Engine) Close() {
	for _, s := range r.sims {
		s.group.Close()
	}
}

// Run executes the simulation under the configured scheduler and returns the
// combined result. It closes the engine's threads before it returns, so a
// run leaves no goroutine behind.
func (r *Engine) Run() (*Result, error) {
	defer r.Close()
	sres, err := sched.Run(r.cfg.Sched, r.Bodies())
	if err != nil {
		return nil, err
	}
	return r.Collect(sres), nil
}

// Bodies returns the simulator process bodies without running them, for
// callers — such as the exhaustive explorer, or a sweep on one reusable
// sched.Session — that drive the scheduler (or a replaying adversary)
// themselves and pass its result to Collect. The bodies are built once with
// the engine: they run the current run, so Reset the engine between runs,
// and Close it when done, since every run leaves its threads parked. The
// slice is the engine's own and must not be modified.
func (r *Engine) Bodies() []sched.Proc { return r.bodies }

// Collect assembles the simulation-level Result around an externally
// obtained scheduler result for this engine's bodies. The Result aliases
// the engine's decision, claim and completion buffers, which Reset clears.
func (r *Engine) Collect(sres *sched.Result) *Result {
	out := &Result{
		Sched:              sres,
		SimulatorDecisions: r.decisions,
		ClaimedProc:        r.claims,
		SimOutputs:         make([]any, r.n),
		Completed:          r.completed,
	}
	for i, j := range r.claims {
		if j >= 0 && r.decisions[i] != nil {
			out.SimOutputs[j] = r.decisions[i]
		}
	}
	return out
}

// snapAGAt returns SAFE_AG[j, snapsn], building it on its first use. The
// serialized runtime makes lazy shared creation race-free. Every simulator
// counts snapsn up from 1, so a snapsn not in the table is the next one.
func (r *Engine) snapAGAt(j, snapsn int) Agreement {
	row := r.snapAG[j]
	if snapsn > len(row) {
		row = append(row, agSlot{ag: r.cfg.NewAgreement(
			"SAFE_AG[" + strconv.Itoa(j) + "," + strconv.Itoa(snapsn) + "]"), run: r.run})
		r.snapAG[j] = row
	}
	return r.current(&row[snapsn-1])
}

// xconsAGAt returns XSAFE_AG[a], building it on its first use (Figure 4).
func (r *Engine) xconsAGAt(a int) Agreement {
	sl := &r.xconsAG[a]
	if sl.ag == nil {
		sl.ag, sl.run = r.cfg.NewAgreement("XSAFE_AG["+strconv.Itoa(a)+"]"), r.run
	}
	return r.current(sl)
}

// current returns sl's agreement, reset first if an earlier run used it.
func (r *Engine) current(sl *agSlot) Agreement {
	if sl.run != r.run {
		sl.ag.Reset()
		sl.run = r.run
	}
	return sl.ag
}

// simulator is one simulator's local state: its copy of the simulated
// memory, sequence counters, cached x_cons results, the two thread-local
// mutexes and the decisions its threads produced, with the threads that
// simulate the processes. It is built with the engine and cleared at the
// start of each of its runs.
type simulator struct {
	i      int
	memi   memRow
	rows   [2]memRow // the copies of memi published in MEM, alternately
	wrote  int       // writes published this run
	wSN    []int
	snapSN []int
	xres   []any
	xknown []bool
	mutex1 bool // held while engaged in an agreement propose
	// mutex2 guards xres[a] per simulated object (Figure 4): it makes the
	// propose/decide pair on XSAFE_AG[a] one-shot per simulator. It must be
	// per-object: it is held across the (possibly forever-blocking) decide,
	// and a single simulator-wide lock would let one dead object wedge every
	// x_cons simulation at a *correct* simulator, breaking Lemma 1's bound
	// of x blocked processes per simulator crash.
	mutex2  []bool
	decided []any
	claimed []bool

	apis  []simAPI // apis[j] runs simulated process j
	group *coro.Group
}

func (r *Engine) newSimulator(i int) *simulator {
	n, objs := r.n, len(r.ports)
	s := &simulator{
		i:       i,
		memi:    make(memRow, n),
		rows:    [2]memRow{make(memRow, n), make(memRow, n)},
		wSN:     make([]int, n),
		snapSN:  make([]int, n),
		xres:    make([]any, objs),
		xknown:  make([]bool, objs),
		mutex2:  make([]bool, objs),
		decided: make([]any, n),
		claimed: make([]bool, n),
		apis:    make([]simAPI, n),
	}
	threads := make([]*coro.Thread, n)
	for j := range threads {
		a := &s.apis[j]
		*a = simAPI{r: r, sim: s, i: i, j: j, proposed: make([]bool, objs)}
		a.bind()
		threads[j] = coro.New(func(y *coro.Yielder) {
			a.y = y
			r.cfg.Alg.Run(a)
		})
	}
	s.group = coro.NewGroup(threads)
	return s
}

// reset clears the simulator's local state for a run on e and re-arms its
// threads.
func (s *simulator) reset(e *sched.Env) {
	clear(s.memi)
	s.wrote = 0
	clear(s.wSN)
	clear(s.snapSN)
	clear(s.xres)
	clear(s.xknown)
	s.mutex1 = false
	clear(s.mutex2)
	clear(s.decided)
	clear(s.claimed)
	for j := range s.apis {
		s.apis[j].e = e
		clear(s.apis[j].proposed)
	}
	s.group.Reset()
}

// simulate is simulator i's process body.
func (r *Engine) simulate(s *simulator, e *sched.Env) {
	i := s.i
	s.reset(e)
	// Park the threads at the end of the run, or as a crash unwinds it.
	defer s.group.KillAll()
	for {
		progressed := s.group.ResumeNext()
		for j, dv := range s.decided {
			if dv == nil || s.claimed[j] {
				continue
			}
			s.claimed[j] = true
			r.completed[i]++
			if !r.cfg.Colored {
				// Colorless: adopt the first simulated decision (§2.4),
				// or keep simulating to completion when the run is
				// instrumented for the liveness lemmas.
				if r.decisions[i] == nil {
					r.decisions[i] = dv
					r.claims[i] = j
					e.Decide(dv)
				}
				if !r.cfg.RunToCompletion {
					return
				}
				continue
			}
			// Colored (§5.5): claim p_j's decision through T&S[j]; on
			// loss resume the remaining threads for another decision.
			if r.tas[j].TestAndSet(e) {
				r.decisions[i] = dv
				r.claims[i] = j
				e.Decide(dv)
				return
			}
		}
		if !progressed {
			// Every thread finished and no usable claim was produced:
			// the simulator halts (with RunToCompletion it has already
			// decided; otherwise this is possible only outside the
			// §5.5 conditions).
			return
		}
	}
}

// simAPI implements algorithms.API on behalf of simulated process j inside
// simulator i. Its shared steps are the simulator's steps: each one is passed
// to the thread's Yielder.Call, which runs it on the simulator's own stack
// (its scheduler process) and resumes the thread at once, so the thread
// itself never touches the scheduler. The thread yields to its siblings
// wherever the simulated process may block.
type simAPI struct {
	r        *Engine
	sim      *simulator
	e        *sched.Env
	y        *coro.Yielder
	i        int // simulator index
	j        int // simulated process index
	proposed []bool

	// The shared steps, bound once as closures over the fields below,
	// which carry each step's arguments and results.
	updateOp, scanOp, proposeOp, decideOp func()
	row                                   memRow    // updateOp: the published copy
	view                                  []memRow  // scanOp: MEM's live cells
	ag                                    Agreement // proposeOp, decideOp
	arg, res                              any
	ok                                    bool
}

// bind builds the shared-step closures.
func (a *simAPI) bind() {
	a.updateOp = func() { a.r.mem.Update(a.e, a.i, a.row) }
	a.scanOp = func() { a.view = a.r.mem.ScanView(a.e) }
	a.proposeOp = func() { a.ag.Propose(a.e, a.arg) }
	a.decideOp = func() { a.res, a.ok = a.ag.TryDecide(a.e) }
}

var _ algorithms.API = (*simAPI)(nil)

// ID implements algorithms.API.
func (a *simAPI) ID() int { return a.j }

// N implements algorithms.API.
func (a *simAPI) N() int { return a.r.n }

// Input implements algorithms.API.
func (a *simAPI) Input() any { return a.r.cfg.Inputs[a.j] }

// Write implements sim_write (Figure 2): bump the write sequence number,
// update the local memory copy and publish it in MEM[i] in one atomic step.
// The published copy alternates between two buffers: the one MEM[i] holds
// stays untouched until the next write replaces it, and scanners read MEM
// before their next step.
func (a *simAPI) Write(v any) {
	sim := a.sim
	sim.wSN[a.j]++                                    // line 01
	sim.memi[a.j] = memCell{val: v, sn: sim.wSN[a.j]} // line 02
	if a.r.onWrite != nil {
		a.r.onWrite(a.i, a.j, sim.wSN[a.j], v)
	}
	a.row = sim.rows[sim.wrote%2]
	sim.wrote++
	copy(a.row, sim.memi)
	a.y.Call(a.updateOp) // line 03
	a.y.Yield()          // fair interleaving of the simulator's threads (§2.4)
}

// Snapshot implements sim_snapshot (Figure 3).
func (a *simAPI) Snapshot() []any {
	r, sim := a.r, a.sim

	a.y.Call(a.scanOp) // line 01
	sm := a.view
	input := make([]any, r.n)
	for y := 0; y < r.n; y++ { // lines 02-03: adopt the most advanced write
		best := memCell{}
		for s := 0; s < r.cfg.Simulators; s++ {
			if sm[s] == nil {
				continue
			}
			if sm[s][y].sn > best.sn {
				best = sm[s][y]
			}
		}
		input[y] = best.val
	}
	sim.snapSN[a.j]++ // line 04
	ag := r.snapAGAt(a.j, sim.snapSN[a.j])

	a.enterMutex1() // line 05
	a.propose(ag, input)
	sim.mutex1 = false

	for { // line 06
		if v, ok := a.tryDecide(ag); ok { // line 07
			res, castOK := v.([]any)
			if !castOK {
				panic(fmt.Sprintf("bg: SAFE_AG[%d,%d] decided foreign value %T",
					a.j, sim.snapSN[a.j], v))
			}
			if r.onSnapshot != nil {
				r.onSnapshot(a.i, a.j, sim.snapSN[a.j], res)
			}
			a.y.Yield() // fair interleaving of the simulator's threads (§2.4)
			return res
		}
		a.y.Yield()
	}
}

// XConsPropose implements sim_x_cons_propose (Figure 4): the value decided
// from the simulated object x_cons[obj] is agreed upon through XSAFE_AG[obj]
// and cached locally in xres.
func (a *simAPI) XConsPropose(obj int, v any) any {
	r, sim := a.r, a.sim
	if obj < 0 || obj >= len(r.ports) {
		panic(fmt.Sprintf("bg: simulated process %d proposed to undeclared object %d", a.j, obj))
	}
	if !containsInt(r.ports[obj], a.j) {
		panic(fmt.Sprintf("bg: simulated process %d is not a port of object %d", a.j, obj))
	}
	if a.proposed[obj] {
		panic(fmt.Sprintf("bg: simulated process %d proposed twice to object %d", a.j, obj))
	}
	a.proposed[obj] = true

	a.enterMutex2(obj) // line 01
	if !sim.xknown[obj] {
		ag := r.xconsAGAt(obj)
		a.enterMutex1() // line 02
		a.propose(ag, v)
		sim.mutex1 = false
		for { // line 03
			if res, ok := a.tryDecide(ag); ok {
				sim.xres[obj], sim.xknown[obj] = res, true
				break
			}
			a.y.Yield()
		}
	}
	sim.mutex2[obj] = false // line 05
	res := sim.xres[obj]
	a.y.Yield() // fair interleaving of the simulator's threads (§2.4)
	return res  // line 06
}

// propose runs ag.Propose as a step of the simulator.
func (a *simAPI) propose(ag Agreement, v any) {
	a.ag, a.arg = ag, v
	a.y.Call(a.proposeOp)
}

// tryDecide runs ag.TryDecide as a step of the simulator.
func (a *simAPI) tryDecide(ag Agreement) (any, bool) {
	a.ag = ag
	a.y.Call(a.decideOp)
	return a.res, a.ok
}

// Decide implements algorithms.API: the simulated decision is recorded
// locally; the simulator's main loop turns it into its own decision
// (colorless) or a claim (colored).
func (a *simAPI) Decide(v any) {
	if v == nil {
		panic(fmt.Sprintf("bg: simulated process %d decided nil", a.j))
	}
	if a.sim.decided[a.j] != nil {
		panic(fmt.Sprintf("bg: simulated process %d decided twice", a.j))
	}
	a.sim.decided[a.j] = v
}

// enterMutex1 acquires the simulator-local propose mutex, yielding to
// sibling threads while it is held elsewhere. Thread switches happen only at
// yields, so plain booleans are sound mutexes here.
//
// Fidelity note: at the paper's step granularity a thread can be preempted
// inside sa_propose, so mutex-1 is what bounds a simulator crash to one
// in-flight agreement. In this engine a propose never spans a yield (it is
// atomic within one thread resume), so mutex-1 can never actually be
// contended; it is kept to mirror Figure 3/4 line by line.
func (a *simAPI) enterMutex1() {
	for a.sim.mutex1 {
		a.y.Yield()
	}
	a.sim.mutex1 = true
}

// enterMutex2 acquires the simulator-local x_cons mutex of one simulated
// object.
func (a *simAPI) enterMutex2(obj int) {
	for a.sim.mutex2[obj] {
		a.y.Yield()
	}
	a.sim.mutex2[obj] = true
}

func containsInt(s []int, v int) bool {
	for _, e := range s {
		if e == v {
			return true
		}
	}
	return false
}
