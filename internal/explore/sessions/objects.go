package sessions

// Object-layer exploration harnesses: exhaustive safety coverage for the
// Herlihy-hierarchy objects of internal/object and the x_compete cascade of
// internal/agreement (Fig. 5). Every checker is order-insensitive (logs are
// treated as multisets) so the scenarios are safe under explore.Config.Prune,
// and every session carries a Fingerprint so explore.Config.Dedup composes.
// Each scenario registers itself with the spec registry; the parameter
// domains declared here are what cmd/explore, the exploredd daemon, the E16
// rows and the spectest conformance suite parse against.

import (
	"errors"
	"fmt"

	"mpcn/internal/agreement"
	"mpcn/internal/explore"
	"mpcn/internal/explore/spec"
	"mpcn/internal/object"
	"mpcn/internal/sched"
)

// TestAndSetRace checks one-shot test&set winner uniqueness (the mutual
// exclusion core of its consensus number 2): n processes invoke TestAndSet
// once; among the invocations that execute, exactly one wins — on every
// schedule and every crash placement.
func TestAndSetRace(n int) func() explore.Session {
	return func() explore.Session {
		var outs []any // per completed invocation: won (bool)
		var outsLog logDigest
		tas := object.NewTestAndSet("tas")
		bodies := make([]sched.Proc, n)
		for i := range bodies {
			bodies[i] = func(e *sched.Env) {
				won := tas.TestAndSet(e)
				outs = append(outs, won)
				e.Decide(won)
			}
		}
		return explore.Session{
			// Symmetric: identical bodies, one process-independent shared bit,
			// boolean outcomes; the checker only counts winners.
			Symmetric: true,
			Make: func() []sched.Proc {
				outs = outs[:0]
				outsLog.reset()
				tas.Reset()
				return bodies
			},
			Check: func(res *sched.Result) error {
				winners := 0
				for _, w := range outs {
					if w.(bool) {
						winners++
					}
				}
				if winners > 1 {
					return fmt.Errorf("test&set: %d winners", winners)
				}
				if len(outs) > 0 && winners == 0 {
					return errors.New("test&set: invocations executed but nobody won")
				}
				if tas.IsSet() != (len(outs) > 0) {
					return fmt.Errorf("test&set: object set=%v but %d invocations executed", tas.IsSet(), len(outs))
				}
				return nil
			},
			Fingerprint: func(h *sched.FP) {
				tas.Fingerprint(h)
				outsLog.values(h, outs)
			},
		}
	}
}

// dequeueRecord is one completed Dequeue/Pop: the returned value and whether
// the container reported non-empty.
type dequeueRecord struct {
	v  any
	ok bool
}

// conserveElements is the shared queue/stack checker: every removed value
// was inserted, nothing is removed twice or invented, and insertions are
// conserved — the multiset of removed values plus the container's final
// content equals the multiset of inserted values. It also checks the
// non-empty invariant of the insert-then-remove workload: because every
// process inserts all its elements before removing any, a removal can never
// observe an empty container (per process, removals never outnumber
// insertions, so globally insertions strictly lead).
func conserveElements(kind string, inserted []any, removed []dequeueRecord, final []int) error {
	counts := make(map[any]int, len(inserted))
	for _, v := range inserted {
		counts[v]++
	}
	for _, r := range removed {
		if !r.ok {
			return fmt.Errorf("%s: removal observed an empty container", kind)
		}
		counts[r.v]--
		if counts[r.v] < 0 {
			return fmt.Errorf("%s: removed value %v was not inserted (or removed twice)", kind, r.v)
		}
	}
	for _, v := range final {
		counts[v]--
		if counts[v] < 0 {
			return fmt.Errorf("%s: final content holds un-inserted or duplicated value %v", kind, v)
		}
	}
	for v, c := range counts {
		if c != 0 {
			return fmt.Errorf("%s: inserted value %v lost (conservation broken)", kind, v)
		}
	}
	return nil
}

// QueueConservation checks FIFO-queue element conservation: n processes each
// enqueue ops distinct values and then dequeue ops times. On every schedule
// and crash placement the removed values plus the final queue content are
// exactly the enqueued values, and no dequeue ever observes an empty queue.
// The queue and the bodies are built once per session; Make resets the
// queue.
func QueueConservation(n, ops int) func() explore.Session {
	return func() explore.Session {
		var inserted []any
		var removed []dequeueRecord
		var insertedLog, removedLog logDigest
		q := object.NewQueue[int]("q")
		bodies := make([]sched.Proc, n)
		for i := range bodies {
			i := i
			bodies[i] = func(e *sched.Env) {
				for j := 0; j < ops; j++ {
					v := 100 + i*ops + j
					q.Enqueue(e, v)
					inserted = append(inserted, v)
				}
				for j := 0; j < ops; j++ {
					v, ok := q.Dequeue(e)
					removed = append(removed, dequeueRecord{v: v, ok: ok})
				}
				e.Decide(0)
			}
		}
		return explore.Session{
			Make: func() []sched.Proc {
				inserted = inserted[:0]
				removed = removed[:0]
				insertedLog.reset()
				removedLog.reset()
				q.Reset()
				return bodies
			},
			Check: func(res *sched.Result) error {
				if res.BudgetExhausted {
					return errors.New("queue: wait-free operations wedged")
				}
				return conserveElements("queue", inserted, removed, q.Items())
			},
			Fingerprint: func(h *sched.FP) {
				q.Fingerprint(h)
				insertedLog.values(h, inserted)
				removedLog.fold(h, len(removed), func(i int, t *sched.FP) {
					t.Value(removed[i].v)
					t.Bool(removed[i].ok)
				})
			},
		}
	}
}

// StackConservation is QueueConservation for the LIFO stack: n processes
// each push ops distinct values then pop ops times; element conservation and
// the non-empty invariant hold on every schedule and crash placement. The
// stack and the bodies are built once per session; Make resets the stack.
func StackConservation(n, ops int) func() explore.Session {
	return func() explore.Session {
		var inserted []any
		var removed []dequeueRecord
		var insertedLog, removedLog logDigest
		s := object.NewStack[int]("s")
		bodies := make([]sched.Proc, n)
		for i := range bodies {
			i := i
			bodies[i] = func(e *sched.Env) {
				for j := 0; j < ops; j++ {
					v := 100 + i*ops + j
					s.Push(e, v)
					inserted = append(inserted, v)
				}
				for j := 0; j < ops; j++ {
					v, ok := s.Pop(e)
					removed = append(removed, dequeueRecord{v: v, ok: ok})
				}
				e.Decide(0)
			}
		}
		return explore.Session{
			Make: func() []sched.Proc {
				inserted = inserted[:0]
				removed = removed[:0]
				insertedLog.reset()
				removedLog.reset()
				s.Reset()
				return bodies
			},
			Check: func(res *sched.Result) error {
				if res.BudgetExhausted {
					return errors.New("stack: wait-free operations wedged")
				}
				return conserveElements("stack", inserted, removed, s.Items())
			},
			Fingerprint: func(h *sched.FP) {
				s.Fingerprint(h)
				insertedLog.values(h, inserted)
				removedLog.fold(h, len(removed), func(i int, t *sched.FP) {
					t.Value(removed[i].v)
					t.Bool(removed[i].ok)
				})
			},
		}
	}
}

// CASCounter checks compare&swap atomicity as lost-update freedom: n
// processes each try to increment a CAS register via a bounded read/CAS
// retry loop. On every schedule and crash placement the register's final
// value equals the number of successful increments — a CAS that "succeeds"
// over a stale read would make the two diverge.
func CASCounter(n, retries int) func() explore.Session {
	return func() explore.Session {
		var succeeded []any // process index per successful increment
		var succeededLog logDigest
		c := object.NewCompareAndSwap[int]("cas", 0)
		bodies := make([]sched.Proc, n)
		for i := range bodies {
			i := i
			bodies[i] = func(e *sched.Env) {
				for r := 0; r < retries; r++ {
					v := c.Read(e)
					if c.CompareAndSwap(e, v, v+1) {
						succeeded = append(succeeded, i)
						break
					}
				}
				e.Decide(0)
			}
		}
		return explore.Session{
			Make: func() []sched.Proc {
				succeeded = succeeded[:0]
				succeededLog.reset()
				c.Reset()
				return bodies
			},
			Check: func(res *sched.Result) error {
				if res.BudgetExhausted {
					return errors.New("cas: wait-free operations wedged")
				}
				if got := c.Value(); got != len(succeeded) {
					return fmt.Errorf("cas: final value %d != %d successful increments (lost or phantom update)",
						got, len(succeeded))
				}
				return nil
			},
			Fingerprint: func(h *sched.FP) {
				c.Fingerprint(h)
				succeededLog.values(h, succeeded)
			},
		}
	}
}

// XConsensusAgreement checks the x-ported consensus objects (§2.3): n <= x
// processes propose distinct values to one XConsensus; every returned value
// is the same proposed value, on every schedule and crash placement.
func XConsensusAgreement(n, x int) func() explore.Session {
	return func() explore.Session {
		var decided []any
		var decidedLog logDigest
		xc := object.NewXConsensus("xc", x, nil)
		bodies := make([]sched.Proc, n)
		for i := range bodies {
			v := 100 + i
			bodies[i] = func(e *sched.Env) {
				got := xc.Propose(e, v)
				decided = append(decided, got)
				e.Decide(got)
			}
		}
		return explore.Session{
			Make: func() []sched.Proc {
				decided = decided[:0]
				decidedLog.reset()
				xc.Reset()
				return bodies
			},
			Check: func(res *sched.Result) error {
				return checkAgreement(decided, n)
			},
			Fingerprint: func(h *sched.FP) {
				xc.Fingerprint(h)
				decidedLog.values(h, decided)
			},
		}
	}
}

// XCompeteSlots checks the x_compete cascade of Figure 5: n processes invoke
// Compete on an x-slot cascade. Its properties, on every schedule and crash
// placement: at most x invokers win; a loser implies all x slots were won;
// and when at most x processes compete, every completed invocation wins.
func XCompeteSlots(n, x int) func() explore.Session {
	return func() explore.Session {
		var outs []any // per completed invocation: won (bool)
		var outsLog logDigest
		xc := agreement.NewXCompete("xcomp", x, nil)
		bodies := make([]sched.Proc, n)
		for i := range bodies {
			bodies[i] = func(e *sched.Env) {
				won := xc.Compete(e)
				outs = append(outs, won)
				e.Decide(won)
			}
		}
		return explore.Session{
			Make: func() []sched.Proc {
				outs = outs[:0]
				outsLog.reset()
				xc.Reset()
				return bodies
			},
			Check: func(res *sched.Result) error {
				winners, losers := 0, 0
				for _, w := range outs {
					if w.(bool) {
						winners++
					} else {
						losers++
					}
				}
				if winners > x {
					return fmt.Errorf("x_compete: %d winners exceed x=%d", winners, x)
				}
				if losers > 0 && winners != x {
					return fmt.Errorf("x_compete: an invoker lost with only %d of %d slots won", winners, x)
				}
				if n <= x && losers > 0 {
					return fmt.Errorf("x_compete: %d invokers lost although only n=%d <= x=%d compete", losers, n, x)
				}
				return nil
			},
			Fingerprint: func(h *sched.FP) {
				xc.Fingerprint(h)
				outsLog.values(h, outs)
			},
		}
	}
}

func init() {
	spec.Register(spec.Decl{
		Name: "testandset",
		Doc:  "one-shot test&set: winner uniqueness (mutual exclusion) on every schedule",
		Params: []spec.Param{
			{Name: "n", Doc: "competing processes", Default: 3, Min: 1, Max: spec.NoMax},
		},
		New: func(p spec.Params) explore.Session {
			return TestAndSetRace(p["n"])()
		},
		Dedup:    true,
		Prune:    true,
		Symmetry: true,
	})

	spec.Register(spec.Decl{
		Name: "queue",
		Doc:  "FIFO queue: element conservation across concurrent enqueue/dequeue streams",
		Params: []spec.Param{
			{Name: "n", Doc: "enqueue-then-dequeue processes", Default: 3, Min: 1, Max: spec.NoMax},
			{Name: "ops", Doc: "elements inserted (and removed) per process", Default: 1, Min: 1, Max: spec.NoMax},
		},
		New: func(p spec.Params) explore.Session {
			return QueueConservation(p["n"], p["ops"])()
		},
		Dedup: true,
		Prune: true,
	})

	spec.Register(spec.Decl{
		Name: "stack",
		Doc:  "LIFO stack: element conservation across concurrent push/pop streams",
		Params: []spec.Param{
			{Name: "n", Doc: "push-then-pop processes", Default: 3, Min: 1, Max: spec.NoMax},
			{Name: "ops", Doc: "elements inserted (and removed) per process", Default: 1, Min: 1, Max: spec.NoMax},
		},
		New: func(p spec.Params) explore.Session {
			return StackConservation(p["n"], p["ops"])()
		},
		Dedup: true,
		Prune: true,
	})

	spec.Register(spec.Decl{
		Name: "cas",
		Doc:  "compare&swap: lost-update freedom of read/CAS increment loops",
		Params: []spec.Param{
			{Name: "n", Doc: "incrementing processes", Default: 2, Min: 1, Max: spec.NoMax},
			{Name: "retries", Doc: "read/CAS attempts per process", Default: 2, Min: 1, Max: spec.NoMax},
		},
		New: func(p spec.Params) explore.Session {
			return CASCounter(p["n"], p["retries"])()
		},
		Dedup: true,
		Prune: true,
	})

	spec.Register(spec.Decl{
		Name: "xconsensus",
		Doc:  "x-ported consensus object (§2.3): agreement + validity among n <= x proposers",
		Params: []spec.Param{
			{Name: "n", Doc: "proposing processes", Default: 2, Min: 1, Max: spec.NoMax},
			{Name: "x", Doc: "consensus number (port capacity)", Default: 2, Min: 1, Max: spec.NoMax},
		},
		Validate: func(p spec.Params) error {
			if p["n"] > p["x"] {
				return fmt.Errorf("need n <= x (port capacity), got n=%d x=%d", p["n"], p["x"])
			}
			return nil
		},
		New: func(p spec.Params) explore.Session {
			return XConsensusAgreement(p["n"], p["x"])()
		},
		Dedup: true,
		Prune: true,
	})

	spec.Register(spec.Decl{
		Name: "xcompete",
		Doc:  "x_compete cascade (Fig. 5): at most x winners; all complete-and-win when n <= x",
		Params: []spec.Param{
			{Name: "n", Doc: "competing processes", Default: 3, Min: 1, Max: spec.NoMax},
			{Name: "x", Doc: "test&set slots in the cascade", Default: 2, Min: 1, Max: spec.NoMax},
		},
		New: func(p spec.Params) explore.Session {
			return XCompeteSlots(p["n"], p["x"])()
		},
		Dedup: true,
		Prune: true,
	})
}
