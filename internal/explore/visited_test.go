package explore

// Orbit-collapse behaviour of the visited store: under symmetry reduction
// the store is keyed by orbit-canonical fingerprints, so k permuted variants
// of one state occupy ONE slot, and the bounded-memory accounting runs on
// canonical keys. The store itself is symmetry-agnostic — these tests pin
// the property the reduction relies on: canonical equality in, single
// residency out.

import (
	"testing"

	"mpcn/internal/sched"
)

// orbitDigest fingerprints one abstract per-process state vector through an
// orbit-canonical FP, the way the symmetric replay engine does: per-process
// content in the process's digest lane, shared content in the base lane.
func orbitDigest(shared int, perProc []int) sched.Fingerprint {
	h := sched.NewOrbitFP(len(perProc), nil)
	h.Int(shared)
	for i, v := range perProc {
		h.Lane(sched.ProcID(i)).Int(v)
	}
	return h.Sum()
}

// permutations returns all orderings of vs (test-sized inputs only).
func permutations(vs []int) [][]int {
	if len(vs) <= 1 {
		return [][]int{append([]int(nil), vs...)}
	}
	var out [][]int
	for i := range vs {
		rest := make([]int, 0, len(vs)-1)
		rest = append(rest, vs[:i]...)
		rest = append(rest, vs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]int{vs[i]}, p...))
		}
	}
	return out
}

// TestVisitedStoreOrbitCollapse offers every permutation of one per-process
// state vector to the store: all k variants hash to one canonical
// fingerprint, so exactly the first Visit reports fresh and the store holds
// ONE resident state.
func TestVisitedStoreOrbitCollapse(t *testing.T) {
	store := NewVisitedStore(1<<20, 1)
	perms := permutations([]int{10, 20, 30, 40})
	if len(perms) != 24 {
		t.Fatalf("expected 24 permutations, got %d", len(perms))
	}
	fresh := 0
	for _, p := range perms {
		if !store.Visit(orbitDigest(7, p)) {
			fresh++
		}
	}
	// The store does not count its own probes: publish them as the lanes do.
	store.st.addLookups(int64(len(perms)))
	if fresh != 1 {
		t.Errorf("%d of %d permuted variants reported fresh, want exactly 1", fresh, len(perms))
	}
	st := store.Stats()
	if st.States != 1 {
		t.Errorf("store holds %d states for one orbit, want 1", st.States)
	}
	if st.Hits != int64(len(perms)-1) {
		t.Errorf("store counted %d hits, want %d", st.Hits, len(perms)-1)
	}

	// A vector from a genuinely different orbit (same multiset size, different
	// content) must NOT collapse into it.
	if store.Visit(orbitDigest(7, []int{10, 20, 30, 41})) {
		t.Error("distinct orbit reported as already visited")
	}
	// Same per-process vector under different SHARED state is a different
	// canonical state too: the base lane is order-sensitive by design.
	if store.Visit(orbitDigest(8, []int{10, 20, 30, 40})) {
		t.Error("distinct shared state reported as already visited")
	}
	if st := store.Stats(); st.States != 3 {
		t.Errorf("store holds %d states, want 3", st.States)
	}
}

// TestVisitedStoreEvictionWithCanonicalKeys drives a minimum-size store past
// its capacity with distinct canonical fingerprints and checks the
// bounded-memory accounting: occupancy stays within capacity, evictions are
// counted, and an evicted canonical key re-offered is re-admitted as a fresh
// insert (the documented over-count) rather than corrupting residency.
func TestVisitedStoreEvictionWithCanonicalKeys(t *testing.T) {
	store := NewVisitedStore(1, 1) // clamps to the minimum one-shard store
	st := store.Stats()
	if st.Capacity <= 0 {
		t.Fatalf("minimum store has capacity %d", st.Capacity)
	}
	distinct := 4 * st.Capacity
	vecs := make([][]int, distinct)
	for i := range vecs {
		vecs[i] = []int{i + 1, -(i + 1), 1000 + i}
		if store.Visit(orbitDigest(0, vecs[i])) {
			t.Fatalf("fresh canonical state %d reported as visited", i)
		}
	}
	st = store.Stats()
	if st.States != int64(distinct) {
		t.Errorf("insert count %d, want %d", st.States, distinct)
	}
	if st.Evictions <= 0 {
		t.Errorf("no evictions after %d inserts into capacity %d", distinct, st.Capacity)
	}
	if st.Occupied > st.Capacity {
		t.Errorf("occupancy %d exceeds capacity %d", st.Occupied, st.Capacity)
	}
	// The most recent insert is resident; a permuted variant of it still
	// collapses onto the resident canonical key even under eviction pressure.
	last := vecs[len(vecs)-1]
	permuted := []int{last[2], last[0], last[1]}
	if !store.Visit(orbitDigest(0, permuted)) {
		t.Error("permuted variant of a resident state reported fresh")
	}
}
