// The engine core both engines run on. The exhaustive walker and the
// schedule sampler differ only in how they choose among the alternatives of
// a decision node; everything else is shared here:
//
//   - Choice, Alternatives and Script: the decision alternatives of a node
//     and the replay-script syntax ("run(p@label)", "crash(p@label)"),
//     rendered by Choice.String and parsed by ParseChoice (replay.go plays
//     scripts back);
//   - Lane: one worker's replay slot — its harness, the sched runtime it
//     leases, the run's visited-store probes, and its share of the counters;
//   - the worker pool: one lane per worker, items claimed from a shared
//     counter, halt on the first failure, cancellation and panic re-raise.

package explore

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpcn/internal/sched"
)

// Choice is one alternative at a decision point: grant Proc one step (Crash
// false) or crash Proc in front of its pending operation (Crash true). Label
// is the interned step label Proc was parked on when the choice was made:
// for a run choice the operation the grant executes, for a crash choice the
// operation the process died in front of.
type Choice struct {
	Crash bool
	Proc  sched.ProcID
	Label sched.Label
}

// String renders the choice in the engines' replay-script syntax.
func (c Choice) String() string {
	if c.Crash {
		return fmt.Sprintf("crash(%d@%s)", c.Proc, c.Label)
	}
	return fmt.Sprintf("run(%d@%s)", c.Proc, c.Label)
}

// ParseChoice parses one replay-script entry, the inverse of String:
// "run(p@label)" or "crash(p@label)", with p in canonical decimal (no sign,
// no leading zero). The label is looked up among the labels interned so far,
// never interned, so parsing untrusted text cannot grow the process-wide
// table; an entry naming a label no process has parked on is an error.
// Every accepted entry renders back to itself.
func ParseChoice(s string) (Choice, error) {
	var c Choice
	body, ok := strings.CutPrefix(s, "run(")
	if !ok {
		body, c.Crash = strings.CutPrefix(s, "crash(")
	}
	body, closed := strings.CutSuffix(body, ")")
	if !(ok || c.Crash) || !closed {
		return Choice{}, fmt.Errorf("explore: unparseable script entry %q", s)
	}
	id, name, ok := strings.Cut(body, "@")
	if !ok {
		return Choice{}, fmt.Errorf("explore: script entry %q lacks the proc@label form", s)
	}
	p, err := strconv.Atoi(id)
	if err != nil || p < 0 || strconv.Itoa(p) != id {
		return Choice{}, fmt.Errorf("explore: script entry %q has no canonical process id", s)
	}
	if c.Label, ok = sched.LookupLabel(name); !ok {
		return Choice{}, fmt.Errorf("explore: script entry %q names an unknown label", s)
	}
	c.Proc = sched.ProcID(p)
	return c, nil
}

// Script renders a decision sequence as a replay script.
func Script(choices []Choice) []string {
	out := make([]string, len(choices))
	for i, c := range choices {
		out[i] = c.String()
	}
	return out
}

// Alternatives appends the alternatives at decision node v to buf: a run
// choice for every runnable process and, when crash is set (the run's crash
// budget lasts), a crash choice for each. Both engines enumerate through it,
// so a sampled run is always one path of the exhaustive tree.
func Alternatives(buf []Choice, v *sched.View, crash bool) []Choice {
	for _, id := range v.Runnable {
		buf = append(buf, Choice{Proc: id, Label: v.Pending[id]})
	}
	if crash {
		for _, id := range v.Runnable {
			buf = append(buf, Choice{Crash: true, Proc: id, Label: v.Pending[id]})
		}
	}
	return buf
}

// Adversary is an engine's decision policy as a Lane runs it: a
// sched.Adversary that reports the decisions of its current run.
type Adversary interface {
	sched.Adversary
	Choices() []Choice
}

// Lane is one worker's replay slot: the harness it replays, the sched
// runtime it replays on (leased from Config.Runtime, or spawned, and kept
// across runs until the process count changes), the job's visited store,
// and the worker's share of the job's counters. Lanes are made by the pool
// and used by one goroutine.
type Lane struct {
	session  Session
	maxSteps int
	runtime  RuntimeSource
	progress *Progress
	store    *dedupStore // the job's visited store; nil = none
	stop     <-chan struct{}

	rt      *sched.Session
	lookups int64 // the current run's store probes, published at its end

	runs, pruned, maxDepth int
}

func newLane(cfg Config, s Session, store *dedupStore, stop <-chan struct{}) *Lane {
	return &Lane{session: s, maxSteps: cfg.MaxSteps, runtime: cfg.Runtime, progress: cfg.Progress, store: store, stop: stop}
}

// Session returns the harness the lane replays.
func (l *Lane) Session() Session { return l.session }

// Run executes one run of the lane's harness under adv and returns the
// runtime's pooled Result, valid until the lane's next run. A runtime
// failure (a body panic, adversary misbehaviour, a failed lease) comes back
// wrapped in ErrRunFailed with the run's script so far; the runtime it broke
// is closed, so no RuntimeSource hands it out again.
func (l *Lane) Run(adv Adversary) (*sched.Result, error) {
	bodies := l.session.Make()
	var err error
	if l.rt == nil || l.rt.N() != len(bodies) {
		l.close()
		l.rt, err = l.acquire(len(bodies))
	}
	var res *sched.Result
	if err == nil {
		res, err = l.rt.Run(sched.Config{Adversary: adv, MaxSteps: l.maxSteps, Observe: l.store != nil}, bodies)
	}
	if l.store != nil {
		l.store.addLookups(l.lookups)
		l.lookups = 0
	}
	if err != nil {
		if l.rt != nil {
			l.rt.Close()
			l.close()
		}
		return nil, fmt.Errorf("%w: %v (schedule %v)", ErrRunFailed, err, Script(adv.Choices()))
	}
	return res, nil
}

// Visit offers fp to the job's visited store and reports whether it was
// already resident. The lane counts the probe and publishes the run's count
// to the store when the run ends.
func (l *Lane) Visit(fp sched.Fingerprint) bool {
	l.lookups++
	return l.store.visit(fp)
}

// Count tallies one completed run of depth decisions, pruned alternatives
// of which reduction dropped, on the lane and in the job's Progress.
func (l *Lane) Count(pruned, depth int) {
	l.runs++
	l.pruned += pruned
	l.maxDepth = max(l.maxDepth, depth)
	l.progress.add(1, int64(pruned))
}

// stopped reports whether the job halted.
func (l *Lane) stopped() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// acquire obtains a runtime for n processes, from the configured
// RuntimeSource when one is set.
func (l *Lane) acquire(n int) (*sched.Session, error) {
	if l.runtime != nil {
		return l.runtime.Acquire(n)
	}
	return sched.NewSession(n)
}

// close releases the lane's runtime — back to the configured RuntimeSource
// (which may keep it warm for the next job), or for good.
func (l *Lane) close() {
	if l.rt == nil {
		return
	}
	if l.runtime != nil {
		l.runtime.Release(l.rt)
	} else {
		l.rt.Close()
	}
	l.rt = nil
}

// retire ends the lane: it closes the runtime and lets go of the visited
// store. A runtime kept warm by a RuntimeSource still holds its last
// adversary, which reaches the store only through the lane.
func (l *Lane) retire() {
	l.close()
	l.store = nil
}

// Pool runs one job's items on one lane per session: worker k replays on
// sessions[k] (a Session per worker, each owning independent run state),
// claims item indices 0..items-1 from a shared counter and hands each to
// the handler start(k, lane) returns, until the items run out, a handler
// fails or the pool halts. Each worker runs on a goroutine of its own; a
// single worker, the sequential engine, runs on the caller's. Lanes take
// cfg's MaxSteps, Runtime and Progress; store, when non-nil, is the job's
// visited store, attached to the Progress while the pool runs.
//
// A failure halts every worker at its next run boundary, and so does
// cancelling ctx. The error reported is the one of the lowest item index
// (ctx's error when no handler failed), the closest a pool gets to the
// first failure a single worker would meet; a panic in a pool worker is
// re-raised on the caller's goroutine once every worker has stopped (a
// single worker's panic simply unwinds through the caller). The
// returned Stats hold the lanes' Runs, Pruned, MaxDepth and Workers.
func Pool(ctx context.Context, cfg Config, sessions []Session, store *VisitedStore, items int, start func(k int, l *Lane) func(i int) error) (Stats, error) {
	var st *dedupStore
	if store != nil {
		st = store.st
		cfg.Progress.attach(st)
		defer cfg.Progress.detach()
	}
	return pool(ctx, cfg, sessions, st, items, start)
}

// pool is Pool over the package's own store type.
func pool(ctx context.Context, cfg Config, sessions []Session, store *dedupStore, items int, start func(k int, l *Lane) func(i int) error) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	// One worker halts itself on its own failure, so it watches ctx alone;
	// a pool shares a halt signal that ctx cancellation is relayed into.
	stop, halt := ctx.Done(), func() {}
	if len(sessions) > 1 {
		ch := make(chan struct{})
		var once sync.Once
		stop, halt = ch, func() { once.Do(func() { close(ch) }) }
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
	}

	type workerOut struct {
		lane     *Lane
		busy     time.Duration
		errAt    int // item index of err
		err      error
		panicked any
	}
	outs := make([]workerOut, len(sessions))
	var next atomic.Int64
	work := func(k int) {
		out := &outs[k]
		out.lane = newLane(cfg, sessions[k], store, stop)
		t0 := time.Now()
		defer func() {
			out.busy = time.Since(t0)
			out.lane.retire()
			if len(sessions) == 1 {
				return // on the caller's goroutine: a panic goes on unwinding
			}
			if r := recover(); r != nil {
				out.panicked = r
				halt()
			}
		}()
		do := start(k, out.lane)
		for !out.lane.stopped() {
			i := int(next.Add(1)) - 1
			if i >= items {
				return
			}
			if err := do(i); err != nil {
				out.err, out.errAt = err, i
				halt()
				return
			}
		}
	}
	if len(sessions) == 1 {
		work(0) // the sequential engine runs on the caller's goroutine
	} else {
		var wg sync.WaitGroup
		for k := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(k)
			}()
		}
		wg.Wait()
	}

	var st Stats
	var firstErr error
	firstAt := -1
	for k := range outs {
		o := &outs[k]
		if o.panicked != nil {
			panic(fmt.Sprintf("explore: checker panicked in worker %d: %v", k, o.panicked))
		}
		l := o.lane
		st.Runs += l.runs
		st.Pruned += l.pruned
		st.MaxDepth = max(st.MaxDepth, l.maxDepth)
		st.Workers = append(st.Workers, WorkerStats{Worker: k, Runs: l.runs, Pruned: l.pruned, Busy: o.busy})
		if o.err != nil && (firstAt < 0 || o.errAt < firstAt) {
			firstErr, firstAt = o.err, o.errAt
		}
	}
	if firstErr == nil {
		// A worker's failure outranks the cancellation that may have raced
		// with it; a clean halt under a cancelled ctx reports the
		// cancellation.
		firstErr = ctx.Err()
	}
	return st, firstErr
}
