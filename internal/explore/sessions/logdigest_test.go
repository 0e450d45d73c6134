package sessions

import (
	"testing"

	"mpcn/internal/sched"
)

// wholeLog is the fold of a whole log that logDigest replaces: every entry
// from h.Sub(), Mix-summed, then the count and the sum.
func wholeLog(h *sched.FP, vs []any) {
	var sum uint64
	for i := range vs {
		t := h.Sub()
		t.Value(vs[i])
		sum += sched.Mix(t.Sum().Lo)
	}
	h.Int(len(vs))
	h.Word(sum)
}

// TestLogDigestIncremental: folding a growing log entry by entry, with and
// without entries appended between folds, gives the whole-log words at every
// length, on a plain FP and on orbit FPs with a canon hook; a fold on
// another carrier restarts the sum, and reset empties it for the next run.
func TestLogDigestIncremental(t *testing.T) {
	erase := func(v any) any {
		if i, ok := v.(int); ok && i >= 100 {
			return "‹proposal›"
		}
		return v
	}
	log := []any{100, 7, "x", 101, nil, []any{102, 3}}
	plain := func() *sched.FP { return new(sched.FP) }
	orbitA, orbitB := sched.NewOrbitFP(2, erase), sched.NewOrbitFP(2, erase)
	check := func(name string, d *logDigest, h *sched.FP, vs []any) {
		t.Helper()
		h.Reset()
		d.values(h, vs)
		got := h.Sum()
		h.Reset()
		wholeLog(h, vs)
		if want := h.Sum(); got != want {
			t.Fatalf("%s at %d entries: incremental %v, whole log %v", name, len(vs), got, want)
		}
	}
	var d logDigest
	for n := 0; n <= len(log); n++ {
		check("plain", &d, plain(), log[:n])
		check("plain again", &d, plain(), log[:n])
		check("orbit", &d, orbitA, log[:n])
		check("orbit again", &d, orbitA, log[:n])
		check("other orbit", &d, orbitB, log[:n])
	}
	d.reset()
	for n := 0; n <= len(log); n += 2 {
		check("plain, two entries a fold", &d, plain(), log[:n])
	}
	d.reset()
	for n := 0; n <= len(log); n++ {
		check("orbit, one carrier", &d, orbitA, log[:n])
	}
	d.reset()
	check("after reset", &d, plain(), log[:1])
	d.reset()
	check("after reset, orbit", &d, orbitA, log[:2])
}

// TestLogDigestShrinkPanics: a log that shrinks between two folds without a
// reset is a harness bug, reported rather than folded.
func TestLogDigestShrinkPanics(t *testing.T) {
	var d logDigest
	var h sched.FP
	d.values(&h, []any{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("folding a shorter log without a reset did not panic")
		}
	}()
	d.values(&h, []any{1})
}
