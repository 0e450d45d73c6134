//go:build !race

package sessions

import (
	"testing"

	"mpcn/internal/explore"
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
