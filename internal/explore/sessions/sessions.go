// Package sessions provides ready-made explorer sessions for the
// repository's agreement objects, simulations and Herlihy-hierarchy
// objects: the one place where each scenario's exhaustive-exploration
// harness (process bodies + property checker + fingerprint) is defined.
// Every scenario registers itself with the spec registry
// (internal/explore/spec) from an init func — specs.go declares the
// agreement/simulation scenarios, objects.go the object-layer ones — and
// cmd/explore, the exploredd daemon, the E16 experiment rows and the
// spectest conformance suite all resolve the harnesses through that
// registry.
// Checkers are insensitive to the order of commuting operations, so every
// session is safe under explore.Config.Prune.
package sessions

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"mpcn/internal/agreement"
	"mpcn/internal/algorithms"
	"mpcn/internal/bg"
	"mpcn/internal/explore"
	"mpcn/internal/reg"
	"mpcn/internal/sched"
	"mpcn/internal/tasks"
)

// SafeAgreement checks safe_agreement's agreement + validity on every
// schedule: n proposers proposing 100..100+n-1, each probing TryDecide a
// bounded number of times so the decision tree stays finite. Schedules
// where a mid-propose crash blocks the survivors surface as runs in which
// nobody decides; when starved is non-nil those single-crash runs are
// counted into it (atomically — the counter is shared across workers).
// The object and the bodies are built once per session; Make resets the
// object.
func SafeAgreement(n, probes int, starved *atomic.Int64) func() explore.Session {
	return func() explore.Session {
		var decided []any
		var decidedLog logDigest
		sa := agreement.NewSafeAgreement("sa", n)
		bodies := proposerBodies(n, probes, sa, &decided)
		return explore.Session{
			Make: func() []sched.Proc {
				decided = decided[:0]
				decidedLog.reset()
				sa.Reset()
				return bodies
			},
			Check: func(res *sched.Result) error {
				if starved != nil && res.Crashes == 1 && res.NumDecided() == 0 {
					starved.Add(1)
				}
				return checkAgreement(decided, n)
			},
			Fingerprint: func(h *sched.FP) {
				sa.Fingerprint(h)
				decidedLog.values(h, decided)
			},
		}
	}
}

// XSafe checks x_safe_agreement the same way for consensus number x.
func XSafe(n, x, probes int) func() explore.Session {
	return func() explore.Session {
		var decided []any
		var decidedLog logDigest
		xs := agreement.NewXSafeFactory(n, x, nil).New("xsa")
		bodies := proposerBodies(n, probes, xs, &decided)
		return explore.Session{
			Make: func() []sched.Proc {
				decided = decided[:0]
				decidedLog.reset()
				xs.Reset()
				return bodies
			},
			Check: func(res *sched.Result) error {
				return checkAgreement(decided, n)
			},
			Fingerprint: func(h *sched.FP) {
				xs.Fingerprint(h)
				decidedLog.values(h, decided)
			},
		}
	}
}

// proposerBodies are the bodies of the agreement harnesses: process i
// proposes 100+i to ag, then probes TryDecide up to probes times and logs
// the value it decides in *decided.
func proposerBodies(n, probes int, ag interface {
	Propose(e *sched.Env, v any)
	TryDecide(e *sched.Env) (any, bool)
}, decided *[]any) []sched.Proc {
	bodies := make([]sched.Proc, n)
	for i := range bodies {
		v := 100 + i
		bodies[i] = func(e *sched.Env) {
			ag.Propose(e, v)
			for p := 0; p < probes; p++ {
				if got, ok := ag.TryDecide(e); ok {
					*decided = append(*decided, got)
					e.Decide(got)
					return
				}
			}
		}
	}
	return bodies
}

// CommitAdopt checks the four commit-adopt properties and wait-freedom on
// every schedule of n proposers proposing 100..100+n-1. The process bodies
// are built once per session and close over the current run's object, so
// Make only rebuilds the shared state (replay engines call it millions of
// times).
func CommitAdopt(n int) func() explore.Session {
	type out struct {
		v         any
		committed bool
	}
	return func() explore.Session {
		var outs []out
		var outsLog logDigest
		var ca *agreement.CommitAdopt
		bodies := make([]sched.Proc, n)
		for i := range bodies {
			v := 100 + i
			bodies[i] = func(e *sched.Env) {
				got, c := ca.Propose(e, v)
				outs = append(outs, out{v: got, committed: c})
				e.Decide(got)
			}
		}
		return explore.Session{
			Symmetric: true,
			Canon:     eraseProposals(n),
			Make: func() []sched.Proc {
				outs = outs[:0]
				outsLog.reset()
				if ca == nil {
					ca = agreement.NewCommitAdopt("ca", n)
				} else {
					ca.Reset()
				}
				return bodies
			},
			Check: func(res *sched.Result) error {
				if res.BudgetExhausted {
					return errors.New("commit-adopt wedged: wait-freedom violated")
				}
				var committed any
				for _, o := range outs {
					if !proposedValue(o.v, n) {
						return fmt.Errorf("non-proposed value %v", o.v)
					}
					if o.committed {
						if committed != nil && committed != o.v {
							return fmt.Errorf("two commits: %v, %v", committed, o.v)
						}
						committed = o.v
					}
				}
				if committed != nil {
					for _, o := range outs {
						if o.v != committed {
							return fmt.Errorf("adopted %v after commit %v", o.v, committed)
						}
					}
				}
				return nil
			},
			Fingerprint: func(h *sched.FP) {
				ca.Fingerprint(h)
				outsLog.fold(h, len(outs), func(i int, t *sched.FP) {
					t.Value(outs[i].v)
					t.Bool(outs[i].committed)
				})
			},
		}
	}
}

// BG explores the classic Borowsky-Gafni simulation: the t-resilient
// (t+1)-set algorithm for n simulated processes on t+1 simulators. The
// returned factory errors if the configuration is invalid. BG sessions
// carry no Fingerprint (the engine's internal state is not fingerprintable
// yet), so explore.Config.Dedup is rejected for them. Wedged runs
// (crash inside a safe_agreement propose) are the expected blocking
// behaviour, not violations; the checker enforces validity and the
// (t+1)-set bound on whatever decisions appear. The simulators take their
// threads' shared steps on their own coroutines, so BG replays on the direct
// protocol with batched grants like every other harness.
//
// Each session builds one engine, and Make only resets it and returns its
// bodies. The engine keeps its simulator threads parked on their coroutines
// between runs; the session's Close ends them. A simulator decides and
// returns with no step in between, so the checker reads the decisions from
// the run's outcomes.
func BG(n, t int) (func() explore.Session, error) {
	inputs := tasks.DistinctInputs(n)
	cfg := bg.Config{
		Alg: algorithms.SnapshotKSet{T: t}, Inputs: inputs, Simulators: t + 1,
		SourceX: 1, NewAgreement: bg.SafeAgreementProvider(t + 1),
	}
	if _, err := bg.New(cfg); err != nil {
		return nil, err
	}
	return func() explore.Session {
		engine, err := bg.New(cfg)
		if err != nil {
			panic(err) // validated above
		}
		var seen []any
		return explore.Session{
			Make: func() []sched.Proc {
				engine.Reset()
				return engine.Bodies()
			},
			Check: func(res *sched.Result) error {
				seen = seen[:0]
				for _, o := range res.Outcomes {
					if !o.Decided {
						continue
					}
					v := o.Value
					if !slices.Contains(inputs, v) {
						return fmt.Errorf("non-proposed simulated value %v", v)
					}
					if !slices.Contains(seen, v) {
						seen = append(seen, v)
					}
				}
				if len(seen) > t+1 {
					return fmt.Errorf("%d distinct decisions exceed the (t+1)-set bound %d", len(seen), t+1)
				}
				return nil
			},
			Close: engine.Close,
		}
	}, nil
}

// ErrNonMonotonicRead is the distinguishing verdict of the Registers reader
// property: a reader observed a smaller value after a larger one on the same
// cell. Atomic and TSO registers never produce it (single-cell reads of
// committed values are monotonic); the regular backend does — the weak-memory
// battery's witness minimizer matches this sentinel via errors.Is.
var ErrNonMonotonicRead = errors.New("registers: reader observed a non-monotonic value sequence")

// Registers is the independence stress: n processes each writing a private
// register writes times — the best case for partial-order reduction and the
// fixed workload of the explorer benchmarks. The private registers are the
// cells of one register array (cell i written only by process i): per-cell
// labels keep the partial-order independence identical to distinct
// registers, while the array's lane-routed fingerprint makes the session
// symmetric — every process runs the same body, so states differing only in
// WHICH processes have progressed canonicalize together.
//
// readers appends extra processes that each read cell 0 twice; the checker
// then asserts the two observations are monotonically non-decreasing (cell 0
// only ever steps upward through 1..writes). backend selects the register
// memory model: with backend=regular and readers >= 1 the monotonicity
// property genuinely fails — the explorer finds the new-then-old read
// inversion — which is exactly the differential witness the weak-memory
// battery replays and minimizes. At the defaults (readers=0, atomic) the
// session is step-for-step and digest-for-digest identical to the historical
// writer-only harness, and only that default configuration declares
// process-permutation symmetry. The array and the bodies are built once per
// session; Make resets the array.
func Registers(n, writes, readers int, backend reg.Backend) func() explore.Session {
	return func() explore.Session {
		regs := reg.NewBackendArray[int](backend, "r", n, n+readers)
		var pairs [][2]int // per completed reader: (first, second) observation
		var pairsLog logDigest
		bodies := make([]sched.Proc, n+readers)
		for i := 0; i < n; i++ {
			i := i
			bodies[i] = func(e *sched.Env) {
				for j := 1; j <= writes; j++ {
					regs.Write(e, i, j)
				}
				regs.Flush(e)
				e.Decide(0)
			}
		}
		for r := 0; r < readers; r++ {
			bodies[n+r] = func(e *sched.Env) {
				a := regs.Read(e, 0)
				b := regs.Read(e, 0)
				pairs = append(pairs, [2]int{a, b})
				e.Decide(0)
			}
		}
		return explore.Session{
			Symmetric: readers == 0 && backend.SupportsSymmetry(),
			Make: func() []sched.Proc {
				regs.Reset()
				pairs = pairs[:0]
				pairsLog.reset()
				return bodies
			},
			Check: func(res *sched.Result) error {
				if res.BudgetExhausted {
					return errors.New("register writers wedged")
				}
				for _, p := range pairs {
					if p[0] < 0 || p[0] > writes || p[1] < 0 || p[1] > writes {
						return fmt.Errorf("registers: invented value in read pair %v", p)
					}
					if p[1] < p[0] {
						return fmt.Errorf("%w: read %d then %d", ErrNonMonotonicRead, p[0], p[1])
					}
				}
				return nil
			},
			Fingerprint: func(h *sched.FP) {
				regs.Fingerprint(h)
				if readers > 0 {
					pairsLog.fold(h, len(pairs), func(i int, t *sched.FP) {
						t.Int(pairs[i][0])
						t.Int(pairs[i][1])
					})
				}
			},
		}
	}
}

// ErrStoreLoadReordered is the distinguishing verdict of the StoreBuffer
// litmus: both processes read 0 — each load was satisfied before the other's
// store became visible, the classic SB (store-buffering) outcome that
// sequential consistency forbids.
var ErrStoreLoadReordered = errors.New("sb: both loads returned 0 (store-load reordering)")

// StoreBuffer is the SB litmus test as an exploration harness: process i
// writes 1 to cell i, reads cell 1-i, then flushes. Under the atomic backend
// at least one process must read 1 on every schedule (program order puts
// each store before the opposite load); under TSO both loads may hit memory
// while both stores sit in the buffers — the explorer reaches the forbidden
// (0,0) outcome. The regular backend, perhaps surprisingly, also forbids it:
// each load is program-ordered after its own write's commit, so for both
// loads to land in (or before) the opposite write's flicker window the two
// commits would each have to precede the other — regular registers weaken
// concurrent reads, not the store→load order SB probes. The two weak
// backends are therefore distinguishable from each other, not just from
// atomic: regular alone fails the Registers reader monotonicity property,
// tso alone fails SB. The array and the bodies are built once per session;
// Make resets the array.
func StoreBuffer(backend reg.Backend) func() explore.Session {
	return func() explore.Session {
		cells := reg.NewBackendArray[int](backend, "sb", 2, 2)
		var loads [2]int
		var loaded [2]bool
		bodies := make([]sched.Proc, 2)
		for i := 0; i < 2; i++ {
			i := i
			bodies[i] = func(e *sched.Env) {
				cells.Write(e, i, 1)
				v := cells.Read(e, 1-i)
				loads[i], loaded[i] = v, true
				cells.Flush(e)
				e.Decide(v)
			}
		}
		return explore.Session{
			Make: func() []sched.Proc {
				cells.Reset()
				loads, loaded = [2]int{}, [2]bool{}
				return bodies
			},
			Check: func(res *sched.Result) error {
				if res.BudgetExhausted {
					return errors.New("sb: wait-free litmus wedged")
				}
				if loaded[0] && loaded[1] && loads[0] == 0 && loads[1] == 0 {
					return ErrStoreLoadReordered
				}
				return nil
			},
			Fingerprint: func(h *sched.FP) {
				cells.Fingerprint(h)
				for i := 0; i < 2; i++ {
					h.Bool(loaded[i])
					h.Int(loads[i])
				}
			},
		}
	}
}

// logDigest is the multiset digest of one append-only harness log: per-entry
// digests are combined commutatively, so two runs whose logs hold the same
// entries in different completion orders fingerprint identically. Sound
// because every checker here treats its log as a set (required under Prune
// anyway). Per-entry digests start from h.Sub(), so that, under symmetry
// reduction, entry values canonicalize through the session's Canon exactly
// like top-level state (Sub is a zero FP on a plain accumulator).
//
// The digest is incremental: a fold Mix-sums only the entries appended since
// the previous fold into the running sum, then folds the entry count and the
// sum, the same words a fold of the whole log gives. The sum is kept for one
// Sub carrier — plain, or one orbit FP's — and restarts when the carrier
// changes. The session resets it in every Make: the log restarts empty, and
// the first fold of a replay can land at the length the previous run ended
// at, which a length check would take for an unchanged log.
type logDigest struct {
	sub sched.FP // the carrier the sum was folded under
	n   int      // entries in sum
	sum uint64
	// t is the per-entry accumulator. It escapes through the entry fold, so
	// a local would be heap-allocated at every entry.
	t sched.FP
}

// reset empties the digest for a new run's log.
func (d *logDigest) reset() { d.n, d.sum = 0, 0 }

// fold folds the digest of a log of n entries into h; entry folds entry i
// into t. Entries below the previous fold's n must be unchanged.
func (d *logDigest) fold(h *sched.FP, n int, entry func(i int, t *sched.FP)) {
	if sub := h.Sub(); sub != d.sub {
		d.sub, d.n, d.sum = sub, 0, 0
	}
	if n < d.n {
		panic(fmt.Sprintf("sessions: log shrank from %d to %d entries without a reset", d.n, n))
	}
	for i := d.n; i < n; i++ {
		d.t = d.sub
		entry(i, &d.t)
		d.sum += sched.Mix(d.t.Sum().Lo)
	}
	d.n = n
	h.Int(n)
	h.Word(d.sum)
}

// values folds a plain decision-value log.
func (d *logDigest) values(h *sched.FP, vs []any) {
	d.fold(h, len(vs), func(i int, t *sched.FP) { t.Value(vs[i]) })
}

// eraseProposals returns the symmetry Canon of the proposal-value sessions:
// the distinct per-process inputs 100..100+n-1 all map to one tag, so runs
// that differ only in WHICH process's proposal flowed where canonicalize
// together. Lossless for the checkers here: validity and agreement compare
// proposal values only for identity and membership in the proposal set, both
// invariant under the erasure combined with the per-process digest lanes.
func eraseProposals(n int) func(v any) any {
	return func(v any) any {
		if proposedValue(v, n) {
			return "‹proposal›"
		}
		return v
	}
}

func checkAgreement(decided []any, n int) error {
	seen := make(map[any]bool)
	for _, v := range decided {
		if !proposedValue(v, n) {
			return fmt.Errorf("non-proposed value %v decided", v)
		}
		seen[v] = true
	}
	if len(seen) > 1 {
		return fmt.Errorf("disagreement: %v", decided)
	}
	return nil
}

func proposedValue(v any, n int) bool {
	i, ok := v.(int)
	return ok && i >= 100 && i < 100+n
}
