package sessions

// Corpus exploration harnesses: the remaining machinery of the repository —
// (m,ℓ)-set agreement, wait-free renaming, the Ωx-boosted consensus of the
// detector package, the Herlihy-hierarchy consensus constructions and the
// universal construction — each wrapped as an explorer session and
// registered with the spec registry, so `explore -list` covers the whole
// seed corpus. Checkers are order-insensitive (logs as multisets) for Prune
// soundness; every bounded scenario carries a Fingerprint for Dedup. The
// boosted-consensus rounds are adversarially unbounded, so that spec is
// declared Unbounded with a sampling budget, exactly like bg.

import (
	"errors"
	"fmt"

	"mpcn/internal/algorithms"
	"mpcn/internal/detector"
	"mpcn/internal/explore"
	"mpcn/internal/explore/spec"
	"mpcn/internal/hierarchy"
	"mpcn/internal/object"
	"mpcn/internal/sched"
	"mpcn/internal/snapshot"
	"mpcn/internal/universal"
)

// MLSet checks the (m,ℓ)-set agreement object's two safety properties on
// every schedule: at most l distinct values are returned among n proposers,
// and every returned value was proposed. The object itself maximizes
// disagreement (it admits new values until ℓ are decided), so the checker is
// exercised at the bound, not comfortably under it.
func MLSet(n, l int) func() explore.Session {
	return func() explore.Session {
		var decided []any
		var ml *object.MLSetAgreement
		return explore.Session{
			Make: func() []sched.Proc {
				decided = decided[:0]
				ml = object.NewMLSetAgreement("ml", n, l, nil)
				bodies := make([]sched.Proc, n)
				for i := range bodies {
					v := 100 + i
					bodies[i] = func(e *sched.Env) {
						got := ml.Propose(e, v)
						decided = append(decided, got)
						e.Decide(got)
					}
				}
				return bodies
			},
			Check: func(res *sched.Result) error {
				if res.BudgetExhausted {
					return errors.New("mlset: single-step proposes wedged")
				}
				seen := make(map[any]bool)
				for _, v := range decided {
					if !proposedValue(v, n) {
						return fmt.Errorf("mlset: non-proposed value %v returned", v)
					}
					seen[v] = true
				}
				if len(seen) > l {
					return fmt.Errorf("mlset: %d distinct values exceed l=%d", len(seen), l)
				}
				return nil
			},
			Fingerprint: func(h *sched.FP) {
				ml.Fingerprint(h)
				foldValues(h, decided)
			},
		}
	}
}

// renameAPI adapts one explorer process to the algorithms.API operation set:
// the shared memory is a primitive snapshot object and the process's original
// name is its index + 1. Renaming declares no x_cons objects, so XConsPropose
// is unreachable.
type renameAPI struct {
	e   *sched.Env
	j   int
	mem *snapshot.Primitive[any]
}

var _ algorithms.API = (*renameAPI)(nil)

func (a *renameAPI) ID() int         { return a.j }
func (a *renameAPI) N() int          { return a.mem.Len() }
func (a *renameAPI) Input() any      { return a.j + 1 }
func (a *renameAPI) Write(v any)     { a.mem.Update(a.e, a.j, v) }
func (a *renameAPI) Snapshot() []any { return a.mem.Scan(a.e) }
func (a *renameAPI) Decide(v any)    { a.e.Decide(v) }
func (a *renameAPI) XConsPropose(obj int, v any) any {
	panic(fmt.Sprintf("renaming declares no x_cons objects, proposed to %d", obj))
}

// RenamingSession checks the wait-free (2n-1)-renaming algorithm natively on
// every schedule: the names decided by surviving processes are distinct, lie
// in 1..2n-1, and — the algorithm being wait-free — no schedule or crash
// placement wedges a survivor.
func RenamingSession(n int) func() explore.Session {
	alg := algorithms.Renaming{}
	return func() explore.Session {
		var names []any
		var mem *snapshot.Primitive[any]
		return explore.Session{
			Make: func() []sched.Proc {
				names = names[:0]
				mem = snapshot.NewPrimitive[any]("mem", n)
				bodies := make([]sched.Proc, n)
				for j := range bodies {
					j := j
					bodies[j] = func(e *sched.Env) {
						alg.Run(&renameAPI{e: e, j: j, mem: mem})
						if e.Decided() {
							names = append(names, e.Decision())
						}
					}
				}
				return bodies
			},
			Check: func(res *sched.Result) error {
				if res.BudgetExhausted {
					return errors.New("renaming wedged: wait-freedom violated")
				}
				seen := make(map[any]bool)
				for _, v := range names {
					name, ok := v.(int)
					if !ok || name < 1 || name > 2*n-1 {
						return fmt.Errorf("renaming: name %v outside 1..%d", v, 2*n-1)
					}
					if seen[v] {
						return fmt.Errorf("renaming: name %v decided twice", v)
					}
					seen[v] = true
				}
				return nil
			},
			Fingerprint: func(h *sched.FP) {
				mem.Fingerprint(h)
				foldValues(h, names)
			},
		}
	}
}

// BoostedConsensusDetector checks the Ωx-boosted consensus construction's
// safety on sampled/bounded schedules: agreement + validity among whatever
// decisions appear. Liveness belongs to the oracle (a round terminates once
// the leader set stabilizes), so budget-exhausted runs are the expected
// adversarial behaviour, not violations — the spec is declared Unbounded and
// explored through MaxRuns/sampling budgets, like bg. The object's internal
// maps are keyed by formatted leader sets, so the session carries no
// Fingerprint and Dedup stays unavailable.
func BoostedConsensusDetector(n, x int) func() explore.Session {
	return func() explore.Session {
		var decided []any
		bc := detector.NewBoostedConsensus("bc", n, x)
		bodies := make([]sched.Proc, n)
		for i := range bodies {
			v := 100 + i
			bodies[i] = func(e *sched.Env) {
				got := bc.Propose(e, v)
				decided = append(decided, got)
				e.Decide(got)
			}
		}
		return explore.Session{
			Make: func() []sched.Proc {
				decided = decided[:0]
				bc.Reset()
				return bodies
			},
			Check: func(res *sched.Result) error {
				return checkAgreement(decided, n)
			},
		}
	}
}

// fpConsensus is a hierarchy consensus protocol that also reports its shared
// state — what the hierarchy session needs for Dedup.
type fpConsensus interface {
	hierarchy.Consensus
	sched.Fingerprinter
}

// hierarchyBases enumerates the base objects of the hierarchy spec's enum
// parameter, in declaration order: test&set and a queue solve two-process
// consensus (consensus number 2), compare&swap solves it for any n.
var hierarchyBases = []string{"tas", "queue", "cas"}

// HierarchyConsensus checks agreement + validity + wait-freedom of the
// classic consensus-number constructions on every schedule: two-process
// consensus from test&set or a queue, n-process consensus from
// compare&swap. All three protocols are straight-line wait-free code, so a
// budget-exhausted run is a violation.
func HierarchyConsensus(base string, n int) func() explore.Session {
	return func() explore.Session {
		var decided []any
		var cons fpConsensus
		return explore.Session{
			Make: func() []sched.Proc {
				decided = decided[:0]
				switch base {
				case "tas":
					cons = hierarchy.NewFromTAS("h", 0, 1)
				case "queue":
					cons = hierarchy.NewFromQueue("h", 0, 1)
				case "cas":
					cons = hierarchy.NewFromCAS("h", n)
				default:
					panic(fmt.Sprintf("hierarchy session: unknown base %q", base))
				}
				bodies := make([]sched.Proc, n)
				for i := range bodies {
					v := 100 + i
					bodies[i] = func(e *sched.Env) {
						got := cons.Propose(e, v)
						decided = append(decided, got)
						e.Decide(got)
					}
				}
				return bodies
			},
			Check: func(res *sched.Result) error {
				if res.BudgetExhausted {
					return errors.New("hierarchy: wait-free protocol wedged")
				}
				return checkAgreement(decided, n)
			},
			Fingerprint: func(h *sched.FP) {
				cons.Fingerprint(h)
				foldValues(h, decided)
			},
		}
	}
}

// counterResp is one completed universal-counter invocation: who, which of
// its invocations, and the counter value returned.
type counterResp struct {
	proc, idx, val int
}

// UniversalCounter checks Herlihy's universal construction driving a shared
// counter: n ports each invoke increment ops times. Linearizability of the
// consensus-log construction surfaces as three checkable facts — responses
// are globally distinct, each process's responses strictly increase, and
// every response lies in 1..n*ops — and the helping rule makes every Invoke
// wait-free, so a budget-exhausted run is a violation.
func UniversalCounter(n, ops int) func() explore.Session {
	return func() explore.Session {
		var resps []counterResp
		var u *universal.Universal[int, int, int]
		return explore.Session{
			Make: func() []sched.Proc {
				resps = resps[:0]
				ports := make([]sched.ProcID, n)
				for i := range ports {
					ports[i] = sched.ProcID(i)
				}
				u = universal.New("u", ports, 0, func(s, _ int) (int, int) {
					return s + 1, s + 1
				})
				bodies := make([]sched.Proc, n)
				for i := range bodies {
					i := i
					bodies[i] = func(e *sched.Env) {
						h := u.NewHandle(sched.ProcID(i))
						last := 0
						for k := 0; k < ops; k++ {
							last = h.Invoke(e, 1)
							resps = append(resps, counterResp{proc: i, idx: k, val: last})
						}
						e.Decide(last)
					}
				}
				return bodies
			},
			Check: func(res *sched.Result) error {
				if res.BudgetExhausted {
					return errors.New("universal: helping rule wedged (wait-freedom violated)")
				}
				seen := make(map[int]bool)
				prev := make(map[int]int) // proc -> last value, in idx order
				for _, r := range resps {
					if r.val < 1 || r.val > n*ops {
						return fmt.Errorf("universal: response %d outside 1..%d", r.val, n*ops)
					}
					if seen[r.val] {
						return fmt.Errorf("universal: response %d returned twice", r.val)
					}
					seen[r.val] = true
					if p, ok := prev[r.proc]; ok && r.val <= p {
						return fmt.Errorf("universal: process %d responses not increasing (%d then %d)",
							r.proc, p, r.val)
					}
					prev[r.proc] = r.val
				}
				return nil
			},
			Fingerprint: func(h *sched.FP) {
				u.Fingerprint(h)
				foldMultiset(h, len(resps), func(i int, t *sched.FP) {
					t.Int(resps[i].proc)
					t.Int(resps[i].idx)
					t.Int(resps[i].val)
				})
			},
		}
	}
}

func init() {
	spec.Register(spec.Decl{
		Name: "mlset",
		Doc:  "(m,ℓ)-set agreement object (§1.3): at most l distinct decisions, all proposed",
		Params: []spec.Param{
			{Name: "n", Doc: "proposing processes (the object's m)", Default: 3, Min: 1, Max: spec.NoMax},
			{Name: "l", Doc: "disagreement bound ℓ", Default: 2, Min: 1, Max: spec.NoMax},
		},
		Validate: func(p spec.Params) error {
			if p["l"] > p["n"] {
				return fmt.Errorf("need 1 <= l <= n, got l=%d n=%d", p["l"], p["n"])
			}
			return nil
		},
		New: func(p spec.Params) explore.Session {
			return MLSet(p["n"], p["l"])()
		},
		Dedup: true,
		Prune: true,
	})

	spec.Register(spec.Decl{
		Name: "renaming",
		Doc:  "wait-free (2n-1)-renaming (colored task): distinct in-range names, no wedging",
		Params: []spec.Param{
			{Name: "n", Doc: "renaming processes", Default: 2, Min: 1, Max: spec.NoMax},
		},
		New: func(p spec.Params) explore.Session {
			return RenamingSession(p["n"])()
		},
		Dedup: true,
		Prune: true,
	})

	// The boosted-consensus rounds are adversarially unbounded (the oracle
	// may never stabilize), so the spec is Unbounded and explored through
	// MaxRuns/sampling budgets; the object's internal maps are keyed by
	// formatted leader sets, so there is no Fingerprint and Dedup requests
	// surface explore.ErrNoFingerprint, exactly like bg.
	spec.Register(spec.Decl{
		Name: "detector",
		Doc:  "Ωx-boosted consensus (§1.3): agreement + validity, liveness left to the oracle",
		Params: []spec.Param{
			{Name: "n", Doc: "proposing processes", Default: 2, Min: 1, Max: spec.NoMax},
			{Name: "x", Doc: "consensus number of the boosted objects", Default: 1, Min: 1, Max: spec.NoMax},
		},
		Sampling: spec.Sampling{Budget: 1500, Depth: 8},
		Validate: func(p spec.Params) error {
			if p["x"] > p["n"] {
				return fmt.Errorf("need 1 <= x <= n, got x=%d n=%d", p["x"], p["n"])
			}
			return nil
		},
		New: func(p spec.Params) explore.Session {
			return BoostedConsensusDetector(p["n"], p["x"])()
		},
		Dedup:     false,
		Prune:     true,
		Unbounded: true,
	})

	spec.Register(spec.Decl{
		Name: "hierarchy",
		Doc:  "consensus-number constructions (§1.1): consensus from test&set, queue or compare&swap",
		Params: []spec.Param{
			{Name: "base", Doc: "base object of the construction", Default: 0, Values: hierarchyBases},
			{Name: "n", Doc: "proposing processes (tas/queue are two-process protocols)", Default: 2, Min: 1, Max: spec.NoMax},
		},
		Validate: func(p spec.Params) error {
			if base := hierarchyBases[p["base"]]; base != "cas" && p["n"] != 2 {
				return fmt.Errorf("base %s solves two-process consensus only, got n=%d", base, p["n"])
			}
			return nil
		},
		New: func(p spec.Params) explore.Session {
			return HierarchyConsensus(hierarchyBases[p["base"]], p["n"])()
		},
		Dedup: true,
		Prune: true,
	})

	spec.Register(spec.Decl{
		Name: "universal",
		Doc:  "Herlihy universal construction (footnote 1) driving a counter: distinct increasing responses, wait-free",
		Params: []spec.Param{
			{Name: "n", Doc: "ports invoking operations", Default: 2, Min: 1, Max: spec.NoMax},
			{Name: "ops", Doc: "increments per port", Default: 1, Min: 1, Max: spec.NoMax},
		},
		New: func(p spec.Params) explore.Session {
			return UniversalCounter(p["n"], p["ops"])()
		},
		Dedup: true,
		Prune: true,
	})
}
