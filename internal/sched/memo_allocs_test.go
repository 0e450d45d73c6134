//go:build !race

package sched

import "testing"

// TestMemoAllocs: a memoized object's fold allocates nothing on a miss (the
// sub-accumulator lives in the memo), on a hit, or on an orbit FP's direct
// fold.
func TestMemoAllocs(t *testing.T) {
	const big = 1 << 20
	o := newMemoCells[any](big, []any{big, "x"}, nil)
	var h FP
	orbit := NewOrbitFP(3, nil)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"miss", func() { o.memo.Invalidate(); o.Fingerprint(&h) }},
		{"hit", func() { o.Fingerprint(&h) }},
		{"orbit", func() { o.Fingerprint(orbit) }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %v allocs, want 0", c.name, n)
		}
	}
}
