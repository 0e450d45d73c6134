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
// Call; Kill reaps a parked thread without running any of its remaining
// code, so no coroutine outlives its simulator.
package coro

import "iter"

// Yielder is passed to a thread body and provides its suspension points.
type Yielder struct {
	yield func(op func()) bool
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
	if !y.yield(op) {
		panic(killSentinel{})
	}
}

type killSentinel struct{}

// Thread is a coroutine. The zero value is not usable; construct with New.
// Thread methods must be called from a single resumer at a time.
type Thread struct {
	body func(*Yielder)
	next func() (func(), bool) // nil until the first Resume
	stop func()
	done bool
}

// New returns a thread that will run body. The body does not start executing
// (and no coroutine exists) until the first Resume.
func New(body func(*Yielder)) *Thread {
	return &Thread{body: body}
}

// run is the coroutine body: it runs the thread body once, absorbing the
// kill sentinel. Any other panic propagates out of the Resume that caused it.
func (t *Thread) run(yield func(func()) bool) {
	defer func() {
		t.done = true
		if r := recover(); r != nil {
			if _, kill := r.(killSentinel); !kill {
				panic(r)
			}
		}
	}()
	t.body(&Yielder{yield: yield})
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
	for {
		op, ok := t.next()
		if !ok {
			return true
		}
		if op == nil {
			return false
		}
		op()
	}
}

// Kill reaps the thread: a never-started or parked thread is unwound without
// executing further body code. Killing a done thread is a no-op. Kill is safe
// to call during a panic unwind, which is how simulators clean up their
// threads when a step of theirs crashes.
func (t *Thread) Kill() {
	if t.done {
		return
	}
	t.done = true
	if t.stop != nil {
		t.stop()
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

// KillAll reaps every live thread. It is safe during panic unwinds.
func (g *Group) KillAll() {
	for _, t := range g.threads {
		t.Kill()
	}
}
