package sched

// Unit tests of the orbit-canonical fingerprint mode: determinism, lane
// permutation invariance, the non-collision obligations (genuinely distinct
// states must keep distinct digests — including the in-flight-local-state
// shape that motivated observation digests), plain-mode degradation, and the
// indexed-label metadata SymLabel canonicalizes through.

import (
	"fmt"
	"testing"
)

// fillLane folds one abstract per-process state into a lane.
func fillLane(ln *FP, pending Label, crashed bool, steps int) {
	ln.SymLabel(pending)
	ln.Bool(crashed)
	ln.Int(steps)
}

func TestOrbitSumDeterminism(t *testing.T) {
	ls := InternIndexed("%s[%d].op", "orbdet", 3)
	digest := func() Fingerprint {
		h := NewOrbitFP(3, nil)
		h.Int(42)
		for i := 0; i < 3; i++ {
			fillLane(h.Lane(ProcID(i)), ls[i], false, i)
		}
		return h.Sum()
	}
	if digest() != digest() {
		t.Fatal("orbit digest not deterministic")
	}
}

func TestOrbitSumLanePermutationInvariance(t *testing.T) {
	// The same three per-process states, assigned to lanes in every order:
	// own-cell labels deindex (process i on cell i), so all assignments are
	// genuine orbit variants and must sum identically.
	ls := InternIndexed("%s[%d].op", "orbperm", 3)
	states := []struct {
		crashed bool
		steps   int
	}{{false, 4}, {true, 0}, {false, 9}}
	digest := func(order [3]int) Fingerprint {
		h := NewOrbitFP(3, nil)
		h.Int(7) // shared state, identical across variants
		for lane, s := range order {
			fillLane(h.Lane(ProcID(lane)), ls[lane], states[s].crashed, states[s].steps)
		}
		return h.Sum()
	}
	want := digest([3]int{0, 1, 2})
	for _, order := range [][3]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		if got := digest(order); got != want {
			t.Errorf("order %v sums to %v, want %v", order, got, want)
		}
	}
}

func TestOrbitSumNonCollision(t *testing.T) {
	ls := InternIndexed("%s[%d].op", "orbdist", 3)
	other := Intern("orbdist.unindexed")
	mk := func(fold func(h *FP)) Fingerprint {
		h := NewOrbitFP(3, nil)
		fold(h)
		return h.Sum()
	}
	variants := map[string]Fingerprint{
		"baseline": mk(func(h *FP) {
			h.Int(1)
			for i := 0; i < 3; i++ {
				fillLane(h.Lane(ProcID(i)), ls[i], false, 5)
			}
		}),
		// Different shared state, same lanes.
		"shared-state": mk(func(h *FP) {
			h.Int(2)
			for i := 0; i < 3; i++ {
				fillLane(h.Lane(ProcID(i)), ls[i], false, 5)
			}
		}),
		// One process crashed.
		"one-crashed": mk(func(h *FP) {
			h.Int(1)
			for i := 0; i < 3; i++ {
				fillLane(h.Lane(ProcID(i)), ls[i], i == 1, 5)
			}
		}),
		// One process parked on an unindexed label instead of its own cell.
		"foreign-label": mk(func(h *FP) {
			h.Int(1)
			fillLane(h.Lane(0), ls[0], false, 5)
			fillLane(h.Lane(1), other, false, 5)
			fillLane(h.Lane(2), ls[2], false, 5)
		}),
		// A process parked on ANOTHER process's cell: folds raw, must differ
		// from the own-cell baseline.
		"foreign-cell": mk(func(h *FP) {
			h.Int(1)
			fillLane(h.Lane(0), ls[1], false, 5)
			fillLane(h.Lane(1), ls[1], false, 5)
			fillLane(h.Lane(2), ls[2], false, 5)
		}),
		// Same park points, different per-process observation digests — the
		// PR-3 regression shape: in-flight local state must split states whose
		// shared memory coincides.
		"obs-digest": mk(func(h *FP) {
			h.Int(1)
			for i := 0; i < 3; i++ {
				ln := h.Lane(ProcID(i))
				fillLane(ln, ls[i], false, 5)
				var obs FP
				obs.Value(100 + i)
				d := obs.Sum()
				ln.Word(d.Lo)
				ln.Word(d.Hi)
			}
		}),
		// Content moved from a lane to the root: placement is part of the
		// state, not just the folded words.
		"base-vs-lane": mk(func(h *FP) {
			h.Int(1)
			fillLane(h, ls[0], false, 5)
			fillLane(h.Lane(1), ls[1], false, 5)
			fillLane(h.Lane(2), ls[2], false, 5)
		}),
	}
	seen := make(map[Fingerprint]string)
	for name, d := range variants {
		if prev, dup := seen[d]; dup {
			t.Errorf("variants %q and %q collide on %v", name, prev, d)
		}
		seen[d] = name
	}
}

func TestOrbitPlainModeLaneIsIdentity(t *testing.T) {
	// Symmetry-aware fold code run on a plain FP must produce the exact
	// pre-orbit digest: Lane is the root, SymLabel is Label, Sub is a zero FP.
	ls := InternIndexed("%s[%d].op", "orbplain", 2)
	var plain FP
	plain.Int(3)
	for i := 0; i < 2; i++ {
		fillLane(plain.Lane(ProcID(i)), ls[i], false, i)
	}
	sub := plain.Sub()
	sub.Value("elem")
	plain.Word(sub.Sum().Lo)

	var direct FP
	direct.Int(3)
	for i := 0; i < 2; i++ {
		direct.Label(ls[i])
		direct.Bool(false)
		direct.Int(i)
	}
	var dsub FP
	dsub.Value("elem")
	direct.Word(dsub.Sum().Lo)

	if plain.Sum() != direct.Sum() {
		t.Fatal("plain-mode Lane/SymLabel/Sub fold diverged from the direct fold")
	}
	if plain.Symmetric() || plain.Lanes() != 0 {
		t.Error("zero FP claims orbit mode")
	}
}

func TestOrbitOutOfRangeLaneIsRoot(t *testing.T) {
	h := NewOrbitFP(2, nil)
	if h.Lane(2) != h.Lane(-1) || h.Lane(2) == h.Lane(0) {
		t.Fatal("out-of-range lanes should alias the root, not a process lane")
	}
	if !h.Symmetric() || h.Lanes() != 2 {
		t.Fatalf("Symmetric=%v Lanes=%d, want true/2", h.Symmetric(), h.Lanes())
	}
}

func TestOrbitCanonAppliesEverywhere(t *testing.T) {
	canon := func(v any) any {
		if i, ok := v.(int); ok && i >= 100 {
			return "‹erased›"
		}
		return v
	}
	digest := func(root, lane, sub any) Fingerprint {
		h := NewOrbitFP(2, canon)
		h.Value(root)
		h.Lane(0).Value(lane)
		s := h.Sub()
		s.Value(sub)
		h.Lane(1).Word(s.Sum().Lo)
		return h.Sum()
	}
	// Values the canon erases are indistinguishable at every fold point…
	if digest(100, 101, 102) != digest(150, 151, 152) {
		t.Error("canon not applied uniformly across root, lane and Sub folds")
	}
	// …values it passes through still distinguish.
	if digest(1, 101, 102) == digest(2, 101, 102) {
		t.Error("canon erased values it should pass through")
	}
}

func TestOrbitResetReuse(t *testing.T) {
	h := NewOrbitFP(2, nil)
	digest := func() Fingerprint {
		h.Reset()
		h.Int(5)
		h.Lane(0).Int(1)
		h.Lane(1).Int(2)
		return h.Sum()
	}
	first := digest()
	h.Reset()
	h.Int(99)
	h.Lane(0).Int(98)
	if digest() != first {
		t.Fatal("Reset does not clear root and lane state")
	}
	// Sum must not consume: two Sums of the same state agree.
	if h.Sum() != h.Sum() {
		t.Fatal("Sum consumed the accumulator")
	}
}

func TestSymLabelOwnForeignUnindexed(t *testing.T) {
	lsA := InternIndexed("%s[%d].op", "symlA", 2)
	lsB := InternIndexed("%s[%d].op", "symlB", 2)
	plain := Intern("symlA.plain")
	lane := func(fold func(ln *FP)) Fingerprint {
		h := NewOrbitFP(2, nil)
		fold(h.Lane(0))
		return h.Sum()
	}
	ownA := lane(func(ln *FP) { ln.SymLabel(lsA[0]) })
	// Own-cell folds of DIFFERENT processes canonicalize to the same base:
	// process 1 on its own cell in lane 1 mirrors process 0 on its in lane 0.
	h := NewOrbitFP(2, nil)
	h.Lane(1).SymLabel(lsA[1])
	if h.Sum() != ownA {
		t.Error("own-cell folds of different processes do not canonicalize together")
	}
	// …but the base keeps object families apart.
	if lane(func(ln *FP) { ln.SymLabel(lsB[0]) }) == ownA {
		t.Error("own-cell folds of different objects collide")
	}
	// A foreign cell folds raw and differs from the own-cell form.
	if lane(func(ln *FP) { ln.SymLabel(lsA[1]) }) == ownA {
		t.Error("foreign-cell fold collides with the own-cell form")
	}
	// Unindexed labels fold raw.
	if lane(func(ln *FP) { ln.SymLabel(plain) }) == ownA {
		t.Error("unindexed label collides with the own-cell form")
	}
}

func TestIndexedLabelMetadata(t *testing.T) {
	ls := InternIndexed("%s[%d].probe", "idxmeta", 3)
	wantBase := Intern(fmt.Sprintf("%s[%d].probe", "idxmeta", -1))
	for i, l := range ls {
		base, idx, ok := IndexedLabel(l)
		if !ok || base != wantBase || idx != i {
			t.Errorf("cell %d: IndexedLabel = (%v, %d, %v), want (%v, %d, true)", i, base, idx, ok, wantBase, i)
		}
	}
	if _, _, ok := IndexedLabel(Intern("idxmeta.unindexed")); ok {
		t.Error("plain label reported as indexed")
	}
	if _, _, ok := IndexedLabel(Label(1 << 30)); ok {
		t.Error("never-interned label reported as indexed")
	}
}

// TestControlWordInjective: the packed control word decodes back to its
// label, own-cell marker, crashed flag and step count at every field edge —
// labels from LabelNone to the largest Label, both flags, and step counts at
// 2^k−1 and 2^k for every k — and a count past the packed width saturates
// the field and asks for the count as a word of its own. So ControlPoints'
// word sequence is injective for any step count; the last part checks that
// its sums are too.
func TestControlWordInjective(t *testing.T) {
	type point struct {
		label        Label
		own, crashed bool
		steps        int
	}
	steps := []int{0}
	for k := 1; k < 63; k++ {
		steps = append(steps, 1<<k-1, 1<<k)
	}
	steps = append(steps, 1<<63-1)
	var points []point
	for _, l := range []Label{LabelNone, LabelStart, 1<<31 - 1} {
		for _, own := range []bool{false, true} {
			for _, crashed := range []bool{false, true} {
				for _, s := range steps {
					points = append(points, point{l, own, crashed, s})
				}
			}
		}
	}
	for _, p := range points {
		w, ok := controlWord(p.label, p.own, p.crashed, p.steps)
		got := point{Label(uint32(w)), w&ctlOwnCell != 0, w&ctlCrashed != 0, int(w >> ctlStepsShift)}
		if got.label != p.label || got.own != p.own || got.crashed != p.crashed {
			t.Errorf("%+v: word %#x decodes to %+v", p, w, got)
		}
		switch {
		case p.steps < ctlStepsEsc && (!ok || got.steps != p.steps):
			t.Errorf("%+v: steps field %d (ok %v), want the count", p, got.steps, ok)
		case p.steps >= ctlStepsEsc && (ok || got.steps != ctlStepsEsc):
			t.Errorf("%+v: steps field %d (ok %v), want the saturated field", p, got.steps, ok)
		}
	}

	// One parked process per point, with an empty observation digest: every
	// point folds to its own sum (a plain FP folds no own-cell marker).
	seen := make(map[Fingerprint]point, len(points))
	for _, p := range points {
		if p.own {
			continue
		}
		var h FP
		h.ControlPoints(&View{
			Pending: []Label{p.label}, Crashed: []bool{p.crashed}, StepsOf: []int{p.steps}, Obs: make([]FP, 1),
		})
		if prev, dup := seen[h.Sum()]; dup {
			t.Fatalf("control points %+v and %+v sum identically", prev, p)
		}
		seen[h.Sum()] = p
	}
}

// TestControlPointsOrbit: ControlPoints folds process i into lane i with
// SymLabel's own-cell canonicalization, so swapping two processes parked on
// their own cells leaves the sum unchanged, while parking one on the other's
// cell changes it; on a plain FP the same views fold in process order.
func TestControlPointsOrbit(t *testing.T) {
	ls := InternIndexed("%s[%d].op", "ctlorbit", 2)
	view := func(p0, p1 Label, s0, s1 int) *View {
		obs := make([]FP, 2)
		obs[0].Int(7)
		return &View{Pending: []Label{p0, p1}, Crashed: make([]bool, 2), StepsOf: []int{s0, s1}, Obs: obs}
	}
	sum := func(h *FP, v *View) Fingerprint {
		h.Reset()
		h.ControlPoints(v)
		return h.Sum()
	}
	orb := NewOrbitFP(2, nil)
	a := view(ls[0], ls[1], 3, 5)
	// Permuting the processes keeps each one parked on its own cell.
	swapped := view(ls[0], ls[1], 5, 3)
	swapped.Obs[0], swapped.Obs[1] = a.Obs[1], a.Obs[0]
	if sum(orb, a) != sum(orb, swapped) {
		t.Error("own-cell control points of swapped processes sum differently")
	}
	if sum(orb, a) == sum(orb, view(ls[1], ls[1], 3, 5)) {
		t.Error("a process parked on a foreign cell sums like one on its own cell")
	}
	var plain FP
	if sum(&plain, a) == sum(&plain, swapped) {
		t.Error("plain control points ignore process order")
	}
}
