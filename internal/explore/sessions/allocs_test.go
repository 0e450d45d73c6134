//go:build !race

package sessions

import (
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/reg"
	"mpcn/internal/sched"
)

// TestFingerprintAllocs: the commit-adopt and queue harnesses fingerprint a
// finished run — non-empty logs folded as multisets — without allocating.
func TestFingerprintAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		sess explore.Session
	}{
		{"commitadopt", CommitAdopt(3)()},
		{"queue", QueueConservation(2, 2)()},
	} {
		res, err := sched.Run(sched.Config{Observe: true}, c.sess.Make())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.sess.Check(res); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var h sched.FP
		fingerprint := func() {
			h.Reset()
			c.sess.Fingerprint(&h)
		}
		if n := testing.AllocsPerRun(100, fingerprint); n != 0 {
			t.Errorf("%s: Fingerprint made %v allocs, want 0", c.name, n)
		}
	}
}

// TestLogDigestAllocs: the incremental log digest folds appended entries,
// and refolds a log it has already summed, without allocating, on a plain
// and on an orbit FP.
func TestLogDigestAllocs(t *testing.T) {
	const big = 1 << 20
	log := []any{big, big + 1, "x", []any{big, nil}}
	var plain sched.FP
	orbit := sched.NewOrbitFP(2, func(v any) any { return v })
	for _, c := range []struct {
		name string
		h    *sched.FP
	}{{"plain", &plain}, {"orbit", orbit}} {
		var d logDigest
		if n := testing.AllocsPerRun(100, func() { d.reset(); d.values(c.h, log) }); n != 0 {
			t.Errorf("%s: folding %d new entries made %v allocs, want 0", c.name, len(log), n)
		}
		if n := testing.AllocsPerRun(100, func() { d.values(c.h, log) }); n != 0 {
			t.Errorf("%s: refolding a summed log made %v allocs, want 0", c.name, n)
		}
	}
}

// TestMakeAllocs: the registers, queue and cas harnesses reuse their
// objects and bodies, so Make allocates nothing.
func TestMakeAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		sess explore.Session
	}{
		{"registers n=3 writes=3", Registers(3, 3, 0, reg.Atomic)()},
		{"queue n=2 ops=2", QueueConservation(2, 2)()},
		{"cas n=2 retries=2", CASCounter(2, 2)()},
	} {
		if _, err := sched.Run(sched.Config{Observe: true}, c.sess.Make()); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { c.sess.Make() }); n != 0 {
			t.Errorf("%s: Make made %v allocs, want 0", c.name, n)
		}
	}
}
