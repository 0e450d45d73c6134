package service

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestCacheHitMissAccounting: the first submission of a key is a miss and
// runs; later identical submissions, through Begin or Lookup, are answered
// by the completed record and the bytes Complete encoded. Lookup counts
// nothing while the key is in flight.
func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache()
	lease := c.Begin("k")
	if !lease.Leader() {
		t.Fatal("first submission is not the leader")
	}
	if _, _, ok := c.Lookup("k"); ok {
		t.Fatal("Lookup answered an in-flight key")
	}
	want := Result{Verdict: VerdictExhausted, Spec: "commitadopt"}
	enc := lease.Complete(want)
	if !bytes.Equal(enc, want.encode()) {
		t.Fatalf("Complete returned %s", enc)
	}

	again := c.Begin("k")
	if again.Leader() {
		t.Fatal("completed key re-elected a leader")
	}
	got, gotEnc, ok := again.Result()
	if !ok || got.Verdict != want.Verdict || got.Spec != want.Spec || !bytes.Equal(gotEnc, enc) {
		t.Fatalf("cached record = %+v %s (ok=%v)", got, gotEnc, ok)
	}
	got, gotEnc, ok = c.Lookup("k")
	if !ok || got.Verdict != want.Verdict || !bytes.Equal(gotEnc, enc) {
		t.Fatalf("Lookup = %+v %s (ok=%v)", got, gotEnc, ok)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Joins != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheSingleFlight: concurrent identical submissions elect exactly one
// leader; every follower receives the leader's record without re-running.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache()
	const n = 8
	var (
		leaders  sync.WaitGroup
		followed = make(chan Result, n)
		leaderCh = make(chan *Lease, n)
	)
	leaders.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer leaders.Done()
			lease := c.Begin("k")
			if lease.Leader() {
				leaderCh <- lease
				return
			}
			if r, _, ok := lease.Result(); ok {
				followed <- r
			}
		}()
	}
	// Exactly one leader wins; complete its flight after the others queued.
	lease := <-leaderCh
	time.Sleep(10 * time.Millisecond)
	lease.Complete(Result{Verdict: VerdictSampled})
	leaders.Wait()
	close(leaderCh)
	close(followed)
	if extra := len(leaderCh); extra != 0 {
		t.Fatalf("%d extra leaders elected", extra)
	}
	delivered := 0
	for r := range followed {
		if r.Verdict != VerdictSampled {
			t.Fatalf("follower got %+v", r)
		}
		delivered++
	}
	if delivered != n-1 {
		t.Fatalf("%d of %d followers got the record", delivered, n-1)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Joins != n-1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheUncacheableEvicted: a canceled or failed record is delivered to
// the waiting followers but evicted, so the next identical submission
// re-runs.
func TestCacheUncacheableEvicted(t *testing.T) {
	c := NewCache()
	lease := c.Begin("k")
	done := make(chan Result, 1)
	go func() {
		follower := c.Begin("k")
		r, _, _ := follower.Result()
		done <- r
	}()
	// Wait for the follower to join before completing.
	for c.Stats().Joins == 0 {
		time.Sleep(time.Millisecond)
	}
	lease.Complete(Result{Verdict: VerdictCanceled})
	if r := <-done; r.Verdict != VerdictCanceled {
		t.Fatalf("follower got %+v", r)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("uncacheable record resident: %+v", st)
	}
	if _, _, ok := c.Lookup("k"); ok {
		t.Fatal("Lookup answered an evicted key")
	}
	if !c.Begin("k").Leader() {
		t.Fatal("evicted key did not re-elect a leader")
	}
}

// TestCacheAbort: an aborted flight wakes its followers without a record and
// frees the key.
func TestCacheAbort(t *testing.T) {
	c := NewCache()
	lease := c.Begin("k")
	done := make(chan bool, 1)
	go func() {
		follower := c.Begin("k")
		_, _, ok := follower.Result()
		done <- ok
	}()
	for c.Stats().Joins == 0 {
		time.Sleep(time.Millisecond)
	}
	lease.Abort()
	if ok := <-done; ok {
		t.Fatal("aborted flight delivered a record")
	}
	if !c.Begin("k").Leader() {
		t.Fatal("aborted key did not re-elect a leader")
	}
}
