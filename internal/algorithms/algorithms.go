// Package algorithms provides the distributed algorithms that the paper's
// simulations take as input, written against the exact operation set the
// model grants a simulated process (§2.4): mem[j].write(), mem.snapshot()
// and x_cons[a].x_cons_propose(), plus deciding.
//
// An Algorithm can run natively in ASM(n, t, x) through Direct (each process
// is one scheduler process), or be simulated by the BG, forward, reverse and
// colored simulations of internal/bg and internal/core, which implement the
// same API with their sim_write / sim_snapshot / sim_x_cons_propose
// operations. Algorithms carry the model parameters they are designed for as
// struct fields, mirroring the paper's phrase "an algorithm A designed for
// ASM(n, t, x)".
package algorithms

import (
	"fmt"
	"sort"

	"mpcn/internal/sched"
)

// API is the operation set available to one process of a simulated
// algorithm. Implementations mark the appropriate linearization steps.
type API interface {
	// ID returns the process index j (0-based).
	ID() int
	// N returns the number of processes of the algorithm.
	N() int
	// Input returns the process's proposed value.
	Input() any
	// Write performs mem[j].write(v) on the process's own component.
	Write(v any)
	// Snapshot performs mem.snapshot(); entries are nil until written.
	Snapshot() []any
	// XConsPropose performs x_cons[obj].x_cons_propose(v) and returns the
	// decided value. The process must be a declared port of obj, and may
	// propose at most once per object.
	XConsPropose(obj int, v any) any
	// Decide records the process's decision. At most once.
	Decide(v any)
}

// Algorithm is a distributed algorithm for the ASM(n, t, x) model.
type Algorithm interface {
	Name() string
	// Requires reports whether the algorithm is well-formed for n processes
	// with consensus-number-x objects (static applicability, independent of
	// the run's failure pattern).
	Requires(n, x int) error
	// Objects declares the algorithm's x_cons objects for an n-process run:
	// element a is the port set (process indices, each of size <= x) of
	// object a.
	Objects(n int) [][]int
	// Run is the code of one process. It must call api.Decide at most once
	// and should return after deciding; it may loop forever when the run's
	// failure pattern exceeds the algorithm's resilience.
	Run(api API)
}

// asInt coerces a task value to int; the bundled algorithms order proposals,
// so they require integer inputs.
func asInt(v any, who string) int {
	i, ok := v.(int)
	if !ok {
		panic(fmt.Sprintf("algorithms: %s requires int values, got %T", who, v))
	}
	return i
}

// SnapshotKSet is the classic t-resilient k-set agreement algorithm for the
// read/write model (k = T+1): write your proposal, repeatedly snapshot until
// n-T entries are visible, decide the minimum visible value. It uses no
// x_cons objects, so it runs in ASM(n, T, 1); with T = 0 it degenerates to
// failure-free consensus.
type SnapshotKSet struct {
	// T is the resilience bound the algorithm is designed for; it decides at
	// most T+1 distinct values.
	T int
}

var _ Algorithm = SnapshotKSet{}

// Name implements Algorithm.
func (a SnapshotKSet) Name() string { return fmt.Sprintf("snapshot-kset(t=%d)", a.T) }

// Requires implements Algorithm.
func (a SnapshotKSet) Requires(n, x int) error {
	if a.T < 0 || a.T >= n {
		return fmt.Errorf("algorithms: %s needs 0 <= t < n, got n=%d", a.Name(), n)
	}
	return nil
}

// Objects implements Algorithm: none.
func (a SnapshotKSet) Objects(n int) [][]int { return nil }

// Run implements Algorithm.
func (a SnapshotKSet) Run(api API) {
	api.Write(api.Input())
	n := api.N()
	for {
		s := api.Snapshot()
		seen := 0
		min := 0
		have := false
		for _, v := range s {
			if v == nil {
				continue
			}
			seen++
			iv := asInt(v, a.Name())
			if !have || iv < min {
				min, have = iv, true
			}
		}
		if seen >= n-a.T {
			api.Decide(min)
			return
		}
	}
}

// ConsensusViaXCons solves consensus using a single x_cons object owned by
// the first min(X, n) processes: ports funnel their proposals through the
// object and publish the result in shared memory; the remaining processes
// adopt the first published result. It is t-resilient for every
// t < min(X, n), matching the paper's remark that every task is solvable
// when x > t.
type ConsensusViaXCons struct {
	// X is the consensus number of the object the algorithm was designed
	// for (the number of ports it uses is min(X, n)).
	X int
}

var _ Algorithm = ConsensusViaXCons{}

// Name implements Algorithm.
func (a ConsensusViaXCons) Name() string { return fmt.Sprintf("consensus-via-xcons(x=%d)", a.X) }

// Requires implements Algorithm.
func (a ConsensusViaXCons) Requires(n, x int) error {
	if a.X < 1 {
		return fmt.Errorf("algorithms: %s needs X >= 1", a.Name())
	}
	if a.X > x {
		return fmt.Errorf("algorithms: %s needs objects of consensus number >= %d, model provides %d",
			a.Name(), a.X, x)
	}
	return nil
}

// Objects implements Algorithm.
func (a ConsensusViaXCons) Objects(n int) [][]int {
	p := a.X
	if n < p {
		p = n
	}
	ports := make([]int, p)
	for i := range ports {
		ports[i] = i
	}
	return [][]int{ports}
}

// Run implements Algorithm.
func (a ConsensusViaXCons) Run(api API) {
	n := api.N()
	p := a.X
	if n < p {
		p = n
	}
	if api.ID() < p {
		w := api.XConsPropose(0, api.Input())
		api.Write(w)
		api.Decide(w)
		return
	}
	for {
		s := api.Snapshot()
		for _, v := range s {
			if v != nil {
				api.Decide(v)
				return
			}
		}
	}
}

// GroupedKSet solves K-set agreement in ASM(n, t', X) for every t' < K*X
// (equivalently ⌊t'/X⌋ <= K-1, the paper's solvability frontier, §1.2): the
// first K*X processes form K groups of X sharing one x_cons object each;
// every group funnels its members' proposals to one value and publishes it.
// At most t' < K*X crashes cannot wipe out all K groups, so some group value
// appears; decisions are group values, hence at most K distinct.
type GroupedKSet struct {
	// K is the agreement bound.
	K int
	// X is the consensus number of the group objects.
	X int
}

var _ Algorithm = GroupedKSet{}

// Name implements Algorithm.
func (a GroupedKSet) Name() string { return fmt.Sprintf("grouped-%dset(x=%d)", a.K, a.X) }

// Requires implements Algorithm.
func (a GroupedKSet) Requires(n, x int) error {
	if a.K < 1 || a.X < 1 {
		return fmt.Errorf("algorithms: %s needs K >= 1 and X >= 1", a.Name())
	}
	if a.X > x {
		return fmt.Errorf("algorithms: %s needs objects of consensus number >= %d, model provides %d",
			a.Name(), a.X, x)
	}
	if n < a.K*a.X {
		return fmt.Errorf("algorithms: %s needs n >= K*X = %d, got n=%d", a.Name(), a.K*a.X, n)
	}
	return nil
}

// Objects implements Algorithm.
func (a GroupedKSet) Objects(n int) [][]int {
	groups := make([][]int, a.K)
	for g := 0; g < a.K; g++ {
		ports := make([]int, a.X)
		for i := range ports {
			ports[i] = g*a.X + i
		}
		groups[g] = ports
	}
	return groups
}

// Run implements Algorithm.
func (a GroupedKSet) Run(api API) {
	j := api.ID()
	if g := j / a.X; j < a.K*a.X {
		w := api.XConsPropose(g, api.Input())
		api.Write(w)
		api.Decide(w)
		return
	}
	// Processes outside the groups adopt the smallest published group value.
	for {
		s := api.Snapshot()
		min := 0
		have := false
		for _, v := range s {
			if v == nil {
				continue
			}
			iv := asInt(v, a.Name())
			if !have || iv < min {
				min, have = iv, true
			}
		}
		if have {
			api.Decide(min)
			return
		}
	}
}

// renameCell is what Renaming processes publish: their original name and
// their current proposal (0 = none yet).
type renameCell struct {
	orig int
	prop int
}

// Fingerprint implements sched.Fingerprinter so published cells fold
// without fmt formatting.
func (c renameCell) Fingerprint(h *sched.FP) {
	h.Int(c.orig)
	h.Int(c.prop)
}

// Renaming is the classic wait-free (2n-1)-renaming algorithm of Attiya et
// al. adapted to snapshots: a process proposes the r-th free name, where r
// is its rank among the participants it sees; on conflict it re-proposes.
// It is a colored task algorithm for ASM(n, n-1, 1).
type Renaming struct{}

var _ Algorithm = Renaming{}

// Name implements Algorithm.
func (Renaming) Name() string { return "wait-free-renaming" }

// Requires implements Algorithm.
func (Renaming) Requires(n, x int) error { return nil }

// Objects implements Algorithm: none.
func (Renaming) Objects(n int) [][]int { return nil }

// Run implements Algorithm.
func (a Renaming) Run(api API) {
	orig := asInt(api.Input(), a.Name())
	prop := 0
	for {
		api.Write(renameCell{orig: orig, prop: prop})
		s := api.Snapshot()

		taken := make(map[int]bool)
		var participants []int
		conflict := false
		for i, raw := range s {
			if raw == nil {
				continue
			}
			c, ok := raw.(renameCell)
			if !ok {
				panic(fmt.Sprintf("algorithms: %s read foreign cell %T", a.Name(), raw))
			}
			participants = append(participants, c.orig)
			if i == api.ID() {
				continue
			}
			if c.prop > 0 {
				taken[c.prop] = true
				if c.prop == prop {
					conflict = true
				}
			}
		}
		if prop > 0 && !conflict {
			api.Decide(prop)
			return
		}
		// Rank of our original name among the participants we saw (1-based).
		sort.Ints(participants)
		r := 1
		for _, p := range participants {
			if p < orig {
				r++
			}
		}
		// Propose the r-th positive integer not taken by anyone else.
		free := 0
		for name := 1; ; name++ {
			if !taken[name] {
				free++
				if free == r {
					prop = name
					break
				}
			}
		}
	}
}
