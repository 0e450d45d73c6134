// Package coro provides killable coroutines used by simulators to run the
// threads of their simulated processes.
//
// A BG-style simulator "locally executes, in a fair way, one thread per
// simulated process" (Imbs & Raynal 2010, §2.4). A thread must be suspendable
// wherever its simulated process could block (for example while a
// safe_agreement decide spins), so each thread is a coroutine (iter.Pull)
// that hands control back to its resumer through Yield. Only one of the
// resumer and its threads runs at a time; a switch is a coroutine switch,
// not a goroutine wakeup.
//
// Threads take no scheduler steps themselves. A shared-memory operation is
// passed to Call, which suspends the thread and runs the operation on the
// resumer's own stack — for a simulator, its scheduler process — before
// resuming the thread at once. The scheduler therefore only ever sees steps
// taken by its own processes, and the order of steps is exactly the order
// in which the threads issue them.
//
// Panics raised by a thread body are re-raised inside Resume. A panic raised
// by a Call operation (in particular the crash sentinel of internal/sched)
// unwinds the resumer directly and leaves the calling thread parked inside
// Call; Kill unwinds a parked thread without running any of its remaining
// code.
//
// A thread has one lifetime, the way the scheduler keeps one coroutine per
// process across runs: New arms it, its first Resume starts its coroutine,
// and when its body returns or is killed the coroutine parks at the run
// boundary. Reset re-arms it to run the body again from the start, on the
// stack the coroutine has already grown. A parked coroutine is a parked
// goroutine until Close ends it, so whoever owns threads must Close them
// when done.
package coro

import "iter"

// Yielder is passed to a thread body and provides its suspension points.
type Yielder struct {
	yield func(op func()) bool
	t     *Thread
}

// Yield suspends the thread and returns control to the caller of Resume. It
// returns when the thread is resumed, and panics with a private sentinel if
// the thread is killed while parked.
func (y *Yielder) Yield() { y.Call(nil) }

// Call suspends the thread, runs op on the stack of the caller of Resume,
// and resumes the thread as soon as op returns. If op panics, the panic
// unwinds the caller of Resume and the thread stays parked inside Call until
// it is killed. A nil op makes Call a plain Yield.
func (y *Yielder) Call(op func()) {
	if !y.yield(op) || y.t.killing {
		panic(killSentinel{})
	}
}

type killSentinel struct{}

// Thread is a coroutine. The zero value is not usable; construct with New.
// Thread methods must be called from a single resumer at a time.
type Thread struct {
	body    func(*Yielder)
	y       Yielder
	next    func() (func(), bool) // nil until the first Resume, and after the coroutine ended
	stop    func()
	started bool // the current body has been resumed
	killing bool // Kill is unwinding the current body
	done    bool
}

// New returns a thread that runs body once per arming: New arms it, and so
// does every Reset. Its coroutine is started by the first Resume and lives
// until Close; the body does not start executing before that Resume.
func New(body func(*Yielder)) *Thread {
	return &Thread{body: body}
}

// run is the coroutine body: it runs the thread body once per arming,
// parking at the run boundary in between until the next Resume after a
// Reset (or Close, which ends it).
func (t *Thread) run(yield func(func()) bool) {
	t.y = Yielder{yield: yield, t: t}
	for {
		t.runBody()
		if !yield(nil) {
			return
		}
	}
}

// runBody runs the body once, absorbing the kill sentinel. Any other panic
// ends the coroutine and propagates out of the Resume that caused it.
func (t *Thread) runBody() {
	defer func() {
		t.done = true
		if r := recover(); r != nil {
			if _, kill := r.(killSentinel); !kill {
				t.next, t.stop = nil, nil
				panic(r)
			}
		}
	}()
	t.body(&t.y)
}

// Resume runs the thread until its next Yield or until its body returns,
// executing every operation the thread passes to Call on the way, and
// reports whether the thread is done. Resuming a done thread is a no-op that
// returns true. A panic raised by the body or by a Call operation propagates
// out of Resume; only the former makes the thread done.
func (t *Thread) Resume() bool {
	if t.done {
		return true
	}
	if t.next == nil {
		t.next, t.stop = iter.Pull(t.run)
	}
	t.started = true
	for {
		op, ok := t.next()
		if !ok || t.done {
			return true
		}
		if op == nil {
			return false
		}
		op()
	}
}

// Kill ends the thread's current body without executing any more of its
// code. A thread not yet resumed since it was armed is only marked done: its
// coroutine, if any, is not resumed, so the body does not start. A parked
// thread is unwound to the run boundary, where its coroutine waits for Reset
// or Close. Killing a done thread is a no-op. Kill is safe to call during a
// panic unwind, which is how simulators clean up their threads when a step
// of theirs crashes.
func (t *Thread) Kill() {
	switch {
	case t.done:
	case !t.started:
		t.done = true
	default:
		t.killing = true
		t.next()
		t.killing = false
	}
}

// Reset re-arms the thread: its next Resume runs the body again from the
// start. A body still live is killed first.
func (t *Thread) Reset() {
	t.Kill()
	t.done, t.started = false, false
}

// Close ends the thread and its coroutine without executing any more of its
// body. The thread stays usable: Reset re-arms it, and its next Resume
// starts a new coroutine. Closing a thread without a coroutine only marks it
// done.
func (t *Thread) Close() {
	t.done = true
	if t.stop != nil {
		t.stop()
		t.next, t.stop = nil, nil
	}
}

// Done reports whether the thread has finished (returned, panicked or been
// killed).
func (t *Thread) Done() bool { return t.done }

// Group is a set of threads resumed round-robin, the fairness discipline the
// BG simulation prescribes for a simulator's local threads.
type Group struct {
	threads []*Thread
	next    int
}

// NewGroup returns a Group over the given threads.
func NewGroup(threads []*Thread) *Group {
	ts := make([]*Thread, len(threads))
	copy(ts, threads)
	return &Group{threads: ts}
}

// ResumeNext resumes the next live thread in round-robin order and reports
// whether any live thread remains afterwards. When all threads are done it
// returns false without resuming anything.
func (g *Group) ResumeNext() bool {
	n := len(g.threads)
	for i := 0; i < n; i++ {
		idx := (g.next + i) % n
		if g.threads[idx].Done() {
			continue
		}
		g.next = (idx + 1) % n
		g.threads[idx].Resume()
		return g.Live() > 0
	}
	return false
}

// Live returns the number of threads that are not done.
func (g *Group) Live() int {
	live := 0
	for _, t := range g.threads {
		if !t.Done() {
			live++
		}
	}
	return live
}

// KillAll kills every live thread. It is safe during panic unwinds.
func (g *Group) KillAll() {
	for _, t := range g.threads {
		t.Kill()
	}
}

// Reset re-arms every thread of the group and restarts the round-robin at
// the first.
func (g *Group) Reset() {
	for _, t := range g.threads {
		t.Reset()
	}
	g.next = 0
}

// Close closes every thread. It is safe during panic unwinds.
func (g *Group) Close() {
	for _, t := range g.threads {
		t.Close()
	}
}
