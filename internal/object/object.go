// Package object implements the shared objects of Herlihy's hierarchy used
// by the ASM(n, t, x) model: test&set, queues, stacks and compare&swap as
// consensus-number exhibits, x-ported consensus objects (the paper's
// "objects with consensus number x"), and the (m, ℓ)-set agreement objects of
// the related work (§1.3).
//
// Every operation is a single atomic step of the sched runtime. Objects that
// the model restricts to x statically-chosen processes enforce their port
// sets: accessing an x-ported object from an unregistered process panics,
// because it is a programming error in the experiment, not a run-time
// condition of the model.
package object

import (
	"fmt"

	"mpcn/internal/sched"
)

// ports guards an object whose access is restricted to a static set of
// processes, as the paper requires for consensus-number-x objects.
type ports struct {
	name    string
	allowed map[sched.ProcID]bool // nil means unrestricted
}

func newPorts(name string, ids []sched.ProcID, max int) ports {
	if ids == nil {
		return ports{name: name}
	}
	if len(ids) > max {
		panic(fmt.Sprintf("object: %s declares %d ports, limit %d", name, len(ids), max))
	}
	m := make(map[sched.ProcID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return ports{name: name, allowed: m}
}

func (p *ports) check(id sched.ProcID) {
	if p.allowed != nil && !p.allowed[id] {
		panic(fmt.Sprintf("object: process %d is not a port of %s", id, p.name))
	}
}

// TestAndSet is a one-shot test&set object (consensus number 2). The first
// invocation returns true ("winner"); all later invocations return false.
type TestAndSet struct {
	name string
	tasL sched.Label
	set  bool
}

// NewTestAndSet returns a fresh one-shot test&set object.
func NewTestAndSet(name string) *TestAndSet {
	return &TestAndSet{name: name, tasL: sched.Intern(name + ".test&set")}
}

// Reset returns the object to its unset state.
func (t *TestAndSet) Reset() { t.set = false }

// Fingerprint implements sched.Fingerprinter.
func (t *TestAndSet) Fingerprint(h *sched.FP) {
	h.Label(t.tasL)
	h.Bool(t.set)
}

// IsSet reports whether the object has been won. It is a harness/checker-side
// accessor: it takes no scheduling step and must not be called from process
// bodies mid-run.
func (t *TestAndSet) IsSet() bool { return t.set }

// TestAndSet atomically sets the object and reports whether the caller won.
func (t *TestAndSet) TestAndSet(e *sched.Env) bool {
	e.StepL(t.tasL)
	won := !t.set
	t.set = true
	sched.ObserveBool(e, won)
	return won
}

// Queue is an atomic FIFO queue (consensus number 2).
type Queue[T any] struct {
	name     string
	enqueueL sched.Label
	dequeueL sched.Label
	init     []T
	items    []T // every item enqueued since construction or Reset
	head     int // items[head:] are queued, front first
}

// NewQueue returns a queue initialized with the given items (front first).
func NewQueue[T any](name string, init ...T) *Queue[T] {
	q := &Queue[T]{
		name:     name,
		enqueueL: sched.Intern(name + ".enqueue"),
		dequeueL: sched.Intern(name + ".dequeue"),
		init:     append([]T(nil), init...),
	}
	q.Reset()
	return q
}

// Reset returns the queue to its freshly constructed content, keeping its
// step labels and its storage, so a harness can reuse one queue across runs.
func (q *Queue[T]) Reset() {
	clear(q.items)
	q.items = append(q.items[:0], q.init...)
	q.head = 0
}

// Enqueue atomically appends v.
func (q *Queue[T]) Enqueue(e *sched.Env, v T) {
	e.StepL(q.enqueueL)
	q.items = append(q.items, v)
}

// Fingerprint implements sched.Fingerprinter: identity plus the queued items
// front to back.
func (q *Queue[T]) Fingerprint(h *sched.FP) {
	h.Label(q.enqueueL)
	queued := q.items[q.head:]
	h.Int(len(queued))
	for i := range queued {
		sched.Fold(h, &queued[i])
	}
}

// Items returns a copy of the queued items, front first. It is a
// harness/checker-side accessor (e.g. for element-conservation checks): it
// takes no scheduling step and must not be called from process bodies
// mid-run.
func (q *Queue[T]) Items() []T {
	return append([]T(nil), q.items[q.head:]...)
}

// Dequeue atomically removes and returns the front item; ok is false when
// the queue is empty.
func (q *Queue[T]) Dequeue(e *sched.Env) (v T, ok bool) {
	e.StepL(q.dequeueL)
	if q.head == len(q.items) {
		sched.ObserveBool(e, false)
		return v, false
	}
	sched.ObserveBool(e, true)
	sched.Observe(e, &q.items[q.head])
	v = q.items[q.head]
	q.head++
	return v, true
}

// Stack is an atomic LIFO stack (consensus number 2).
type Stack[T any] struct {
	name  string
	pushL sched.Label
	popL  sched.Label
	init  []T
	items []T
}

// NewStack returns a stack initialized with the given items (bottom first).
func NewStack[T any](name string, init ...T) *Stack[T] {
	s := &Stack[T]{
		name:  name,
		pushL: sched.Intern(name + ".push"),
		popL:  sched.Intern(name + ".pop"),
		init:  append([]T(nil), init...),
	}
	s.Reset()
	return s
}

// Reset returns the stack to its freshly constructed content, keeping its
// step labels and its storage, so a harness can reuse one stack across runs.
func (s *Stack[T]) Reset() {
	clear(s.items)
	s.items = append(s.items[:0], s.init...)
}

// Push atomically pushes v.
func (s *Stack[T]) Push(e *sched.Env, v T) {
	e.StepL(s.pushL)
	s.items = append(s.items, v)
}

// Fingerprint implements sched.Fingerprinter: identity plus the stacked
// items bottom to top.
func (s *Stack[T]) Fingerprint(h *sched.FP) {
	h.Label(s.pushL)
	h.Int(len(s.items))
	for i := range s.items {
		sched.Fold(h, &s.items[i])
	}
}

// Items returns a copy of the stacked items, bottom first. It is a
// harness/checker-side accessor (e.g. for element-conservation checks): it
// takes no scheduling step and must not be called from process bodies
// mid-run.
func (s *Stack[T]) Items() []T {
	return append([]T(nil), s.items...)
}

// Pop atomically removes and returns the top item; ok is false when the
// stack is empty.
func (s *Stack[T]) Pop(e *sched.Env) (v T, ok bool) {
	e.StepL(s.popL)
	if len(s.items) == 0 {
		sched.ObserveBool(e, false)
		return v, false
	}
	top := len(s.items) - 1
	sched.ObserveBool(e, true)
	sched.Observe(e, &s.items[top])
	v = s.items[top]
	s.items = s.items[:top]
	return v, true
}

// CompareAndSwap is an atomic compare&swap register (consensus number ∞).
type CompareAndSwap[T comparable] struct {
	name  string
	readL sched.Label
	casL  sched.Label
	v     T
}

// NewCompareAndSwap returns a CAS register initialized to init.
func NewCompareAndSwap[T comparable](name string, init T) *CompareAndSwap[T] {
	return &CompareAndSwap[T]{
		name:  name,
		readL: sched.Intern(name + ".read"),
		casL:  sched.Intern(name + ".cas"),
		v:     init,
	}
}

// Read atomically reads the register.
func (c *CompareAndSwap[T]) Read(e *sched.Env) T {
	e.StepL(c.readL)
	sched.Observe(e, &c.v)
	return c.v
}

// Value returns the register's current content. It is a harness/checker-side
// accessor (e.g. for lost-update checks): it takes no scheduling step and
// must not be called from process bodies mid-run — bodies read via Read.
func (c *CompareAndSwap[T]) Value() T { return c.v }

// Fingerprint implements sched.Fingerprinter.
func (c *CompareAndSwap[T]) Fingerprint(h *sched.FP) {
	h.Label(c.casL)
	sched.Fold(h, &c.v)
}

// CompareAndSwap atomically replaces old with new and reports success.
func (c *CompareAndSwap[T]) CompareAndSwap(e *sched.Env, old, new T) bool {
	e.StepL(c.casL)
	if c.v != old {
		sched.ObserveBool(e, false)
		return false
	}
	c.v = new
	sched.ObserveBool(e, true)
	return true
}

// XConsensus is an object with consensus number x: a one-shot consensus
// object accessible by at most x statically-declared processes (the paper's
// x_cons objects, §2.3). Each port may propose at most once; the first
// proposal to take a step wins.
type XConsensus struct {
	ports    ports
	propL    sched.Label
	x        int
	decided  bool
	value    any
	proposed map[sched.ProcID]bool
}

// NewXConsensus returns an x-ported consensus object. portIDs lists the
// processes allowed to access it; nil leaves the object unrestricted (used
// when port discipline is enforced by a higher layer, e.g. dynamically-owned
// objects). len(portIDs) must not exceed x.
func NewXConsensus(name string, x int, portIDs []sched.ProcID) *XConsensus {
	if x < 1 {
		panic(fmt.Sprintf("object: XConsensus %q needs x >= 1, got %d", name, x))
	}
	return &XConsensus{
		ports:    newPorts(name, portIDs, x),
		propL:    sched.Intern(name + ".x_cons_propose"),
		x:        x,
		proposed: make(map[sched.ProcID]bool),
	}
}

// X returns the object's consensus number (its port capacity).
func (c *XConsensus) X() int { return c.x }

// Reset returns the object to its freshly constructed state: undecided, no
// port proposed.
func (c *XConsensus) Reset() {
	c.decided, c.value = false, nil
	clear(c.proposed)
}

// Fingerprint implements sched.Fingerprinter: identity, decision state and
// the (unordered) set of ports that already proposed.
func (c *XConsensus) Fingerprint(h *sched.FP) {
	h.Label(c.propL)
	h.Bool(c.decided)
	sched.Fold(h, &c.value)
	h.ProcSet(c.proposed)
}

// Propose proposes v and returns the object's decided value. It panics when
// called from a non-port process or twice from the same process: both are
// violations of the model's static-port, one-shot discipline.
func (c *XConsensus) Propose(e *sched.Env, v any) any {
	id := e.ID()
	c.ports.check(id)
	if c.proposed[id] {
		panic(fmt.Sprintf("object: process %d proposed twice to %s", id, c.ports.name))
	}
	c.proposed[id] = true
	if len(c.proposed) > c.x {
		panic(fmt.Sprintf("object: %s accessed by %d processes, consensus number %d",
			c.ports.name, len(c.proposed), c.x))
	}
	e.StepL(c.propL)
	if !c.decided {
		c.decided = true
		c.value = v
	}
	sched.Observe(e, &c.value)
	return c.value
}

// MLSetAgreement is an (m, ℓ)-set agreement object: it solves ℓ-set
// agreement among at most m processes (§1.3). At most ℓ distinct values are
// ever returned; each returned value was proposed.
type MLSetAgreement struct {
	ports   ports
	propL   sched.Label
	m, l    int
	decided []any
	seen    map[sched.ProcID]bool
}

// NewMLSetAgreement returns an (m, l)-set agreement object restricted to
// portIDs (nil = unrestricted, capacity still m).
func NewMLSetAgreement(name string, m, l int, portIDs []sched.ProcID) *MLSetAgreement {
	if m < 1 || l < 1 || l > m {
		panic(fmt.Sprintf("object: MLSetAgreement %q needs 1 <= l <= m, got (%d, %d)", name, m, l))
	}
	return &MLSetAgreement{
		ports: newPorts(name, portIDs, m),
		propL: sched.Intern(name + ".ml_propose"),
		m:     m,
		l:     l,
		seen:  make(map[sched.ProcID]bool),
	}
}

// Fingerprint implements sched.Fingerprinter: identity, the decided values
// in decision order (later proposers are served by index into this list, so
// the order is semantically relevant) and the set of proposers seen.
func (o *MLSetAgreement) Fingerprint(h *sched.FP) {
	h.Label(o.propL)
	h.Int(len(o.decided))
	for i := range o.decided {
		sched.Fold(h, &o.decided[i])
	}
	h.ProcSet(o.seen)
}

// Propose proposes v and returns one of at most ℓ decided values. The object
// adversarially maximizes disagreement: it keeps admitting new distinct
// values until ℓ are decided.
func (o *MLSetAgreement) Propose(e *sched.Env, v any) any {
	id := e.ID()
	o.ports.check(id)
	if o.seen[id] {
		panic(fmt.Sprintf("object: process %d proposed twice to %s", id, o.ports.name))
	}
	o.seen[id] = true
	if len(o.seen) > o.m {
		panic(fmt.Sprintf("object: %s accessed by %d processes, capacity %d",
			o.ports.name, len(o.seen), o.m))
	}
	e.StepL(o.propL)
	k := len(o.decided)
	if k < o.l {
		o.decided = append(o.decided, v)
	} else {
		// Spread returned values across the decided set to keep disagreement
		// maximal while staying deterministic.
		k = len(o.seen) % len(o.decided)
	}
	sched.Observe(e, &o.decided[k])
	return o.decided[k]
}
