package sched

import "testing"

// TestFPWordsDistinct feeds many small distinct inputs and requires distinct
// 128-bit sums — the sanity floor for a state-hashing digest.
func TestFPWordsDistinct(t *testing.T) {
	seen := make(map[Fingerprint]uint64)
	for i := uint64(0); i < 100000; i++ {
		var h FP
		h.Word(i)
		s := h.Sum()
		if prev, dup := seen[s]; dup {
			t.Fatalf("collision: Word(%d) and Word(%d) both sum to %+v", i, prev, s)
		}
		seen[s] = i
	}
}

// TestFPOrderSensitive: the digest must distinguish fold orders (callers
// canonicalize ordering themselves).
func TestFPOrderSensitive(t *testing.T) {
	var a, b FP
	a.Word(1)
	a.Word(2)
	b.Word(2)
	b.Word(1)
	if a.Sum() == b.Sum() {
		t.Fatal("FP ignored fold order")
	}
}

// TestFPValueTags: equal underlying bits of different types must not collide,
// and strings must be length-prefixed.
func TestFPValueTags(t *testing.T) {
	sums := make(map[Fingerprint]string)
	add := func(name string, v any) {
		var h FP
		h.Value(v)
		s := h.Sum()
		if prev, dup := sums[s]; dup {
			t.Fatalf("Value collision between %s and %s", prev, name)
		}
		sums[s] = name
	}
	add("nil", nil)
	add("int(1)", 1)
	add("int64(1)", int64(2)) // int64 shares the int tag; distinct value
	add("uint64(1)", uint64(1))
	add("bool(true)", true)
	add("string(1)", "1")
	add("Label(1)", Label(1))
	add("ProcID(1)", ProcID(1))
	var h1, h2 FP
	h1.String("ab")
	h1.String("c")
	h2.String("a")
	h2.String("bc")
	if h1.Sum() == h2.Sum() {
		t.Fatal("String concatenation collided across boundaries")
	}
}

// TestFPDeterminism: identical fold sequences produce identical sums, across
// FP values and including the Fingerprinter hook.
func TestFPDeterminism(t *testing.T) {
	fold := func() Fingerprint {
		var h FP
		h.Int(42)
		h.Bool(true)
		h.Label(LabelStart)
		h.String("mem[3].write")
		h.Value(fpHookVal{7})
		return h.Sum()
	}
	if fold() != fold() {
		t.Fatal("FP is not deterministic")
	}
}

type fpHookVal struct{ v int }

func (f fpHookVal) Fingerprint(h *FP) { h.Int(f.v) }

// TestFPValueFallback: exotic types go through the fmt fallback and still
// hash deterministically and distinctly.
func TestFPValueFallback(t *testing.T) {
	type odd struct{ A, B int }
	var h1, h2, h3 FP
	h1.Value(odd{1, 2})
	h2.Value(odd{1, 2})
	h3.Value(odd{2, 1})
	if h1.Sum() != h2.Sum() {
		t.Fatal("fallback not deterministic")
	}
	if h1.Sum() == h3.Sum() {
		t.Fatal("fallback collided on distinct values")
	}
}

// TestMixCommutativeFold: the documented unordered-collection recipe —
// summing Mix-ed element digests — is insensitive to iteration order and
// sensitive to membership.
func TestMixCommutativeFold(t *testing.T) {
	digest := func(ids []int) uint64 {
		var sum uint64
		for _, id := range ids {
			sum += Mix(uint64(id) + 1)
		}
		return sum
	}
	if digest([]int{1, 2, 3}) != digest([]int{3, 1, 2}) {
		t.Fatal("commutative fold depends on order")
	}
	if digest([]int{1, 2, 3}) == digest([]int{1, 2, 4}) {
		t.Fatal("commutative fold ignored membership")
	}
}

// fpPtrHook implements Fingerprinter on its pointer only, as cells with
// type-parameter fields do so that the fields fold in place.
type fpPtrHook struct{ v int }

func (f *fpPtrHook) Fingerprint(h *FP) { h.Int(f.v) }

// TestFoldMatchesValue: folding a stored value through its pointer yields
// the words Value yields for the boxed value — for every scalar type Value
// tags, for *any, for value-receiver Fingerprinters and for types that fall
// back — in plain mode and under an orbit canon hook.
func TestFoldMatchesValue(t *testing.T) {
	canon := func(v any) any {
		if i, ok := v.(int); ok && i >= 100 {
			return "‹erased›"
		}
		return v
	}
	for _, mk := range []func() *FP{
		func() *FP { return new(FP) },
		func() *FP { return NewOrbitFP(2, canon) },
	} {
		check := func(name string, fold func(h *FP), v any) {
			t.Helper()
			a, b := mk(), mk()
			fold(a)
			b.Value(v)
			if a.Sum() != b.Sum() {
				t.Errorf("Fold(%s) != Value(%#v) (orbit=%v)", name, v, a.Symmetric())
			}
		}
		b, i, i32, i64 := true, 1<<40, int32(-7), int64(-1)
		u, u64, s := uint(9), uint64(1<<63), "mem[3]"
		l, p := Intern("fold.test"), ProcID(2)
		var anyInt, anyNil, anySlice any = 150, nil, []any{1, "x", nil}
		hook := fpHookVal{7}
		type odd struct{ A, B int }
		o := odd{1, 2}
		check("bool", func(h *FP) { Fold(h, &b) }, b)
		check("int", func(h *FP) { Fold(h, &i) }, i)
		check("int32", func(h *FP) { Fold(h, &i32) }, i32)
		check("int64", func(h *FP) { Fold(h, &i64) }, i64)
		check("uint", func(h *FP) { Fold(h, &u) }, u)
		check("uint64", func(h *FP) { Fold(h, &u64) }, u64)
		check("string", func(h *FP) { Fold(h, &s) }, s)
		check("Label", func(h *FP) { Fold(h, &l) }, l)
		check("ProcID", func(h *FP) { Fold(h, &p) }, p)
		check("any(150)", func(h *FP) { Fold(h, &anyInt) }, anyInt)
		check("any(nil)", func(h *FP) { Fold(h, &anyNil) }, anyNil)
		check("any([]any)", func(h *FP) { Fold(h, &anySlice) }, anySlice)
		check("Fingerprinter", func(h *FP) { Fold(h, &hook) }, hook)
		check("fallback", func(h *FP) { Fold(h, &o) }, o)
		erased := 120
		check("canon-erased int", func(h *FP) { Fold(h, &erased) }, erased)
	}
	// A pointer-receiver Fingerprinter folds through its pointer, exactly as
	// Value folds the pointer itself.
	var a, b FP
	ph := fpPtrHook{5}
	Fold(&a, &ph)
	b.Value(&ph)
	if a.Sum() != b.Sum() {
		t.Error("Fold of a pointer-receiver Fingerprinter differs from Value of its pointer")
	}
}

// TestFPValueSliceStructural: []any folds element by element, length
// prefixed, so element values, order and boundaries all count.
func TestFPValueSliceStructural(t *testing.T) {
	sums := make(map[Fingerprint]string)
	add := func(name string, v any) {
		t.Helper()
		var h FP
		h.Value(v)
		if prev, dup := sums[h.Sum()]; dup {
			t.Fatalf("Value collision between %s and %s", prev, name)
		}
		sums[h.Sum()] = name
	}
	add("nil", nil)
	add("[]", []any{})
	add("[nil]", []any{nil})
	add("[1 2]", []any{1, 2})
	add("[2 1]", []any{2, 1})
	add("[1 \"2\"]", []any{1, "2"})
	add("[[1] 2]", []any{[]any{1}, 2})
	add("[[1 2]]", []any{[]any{1, 2}})
	var h1, h2 FP
	h1.Value([]any{1, []any{2, 3}})
	h2.Value([]any{1, []any{2, 3}})
	if h1.Sum() != h2.Sum() {
		t.Fatal("[]any fold not deterministic")
	}
}

// TestFPZeroRuns: runs of zero words of different lengths sum differently —
// the zero state is no fixed point of the zero word, so padding a fold with
// zeros (an absent label, a false flag, a zero count) is never invisible.
func TestFPZeroRuns(t *testing.T) {
	seen := make(map[Fingerprint]int)
	var h FP
	for k := range 64 {
		if prev, dup := seen[h.Sum()]; dup {
			t.Fatalf("%d and %d zero words sum identically", prev, k)
		}
		seen[h.Sum()] = k
		h.Word(0)
	}
}
