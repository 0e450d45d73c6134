// The result cache: content-addressed on Job.Key with single-flight
// submission collapsing. A cached verdict is sound to replay because jobs
// are canonicalized by Prepare and the engines are deterministic functions
// of the job's content (up to counterexample choice under parallel timing,
// which the cache pins to the first-computed record).

package service

import (
	"sync"
	"sync/atomic"
)

// CacheStats are the cache's monotone counters.
type CacheStats struct {
	// Hits counts submissions answered by a completed entry; Joins counts
	// submissions that attached to an identical job already in flight (they
	// too never re-ran the engine); Misses counts submissions that became
	// leaders and ran.
	Hits   int64 `json:"hits"`
	Joins  int64 `json:"joins"`
	Misses int64 `json:"misses"`
	// Entries is the number of completed records resident.
	Entries int `json:"entries"`
}

// flight is one in-flight or completed computation of a key.
type flight struct {
	done   chan struct{}
	result Result
	enc    []byte // result's JSON encoding, made once by Complete
	ok     bool   // result is valid (leader completed and kept it)
}

// Cache is the single-flight content-addressed result cache. The zero value
// is not usable; use NewCache.
type Cache struct {
	mu      sync.Mutex
	flights map[string]*flight

	hits   atomic.Int64
	joins  atomic.Int64
	misses atomic.Int64
}

// NewCache builds an empty cache.
func NewCache() *Cache {
	return &Cache{flights: make(map[string]*flight)}
}

// Lease is one submission's handle on a key's computation.
type Lease struct {
	c      *Cache
	key    string
	f      *flight
	leader bool
}

// Leader reports whether this submission must run the engine (every other
// outcome waits on the leader).
func (l *Lease) Leader() bool { return l.leader }

// Done is closed when the computation completes or aborts.
func (l *Lease) Done() <-chan struct{} { return l.f.done }

// Result returns the computed record and its JSON encoding after Done; ok
// is false when the leader aborted (callers then resubmit or report the
// abort).
func (l *Lease) Result() (Result, []byte, bool) {
	<-l.f.done
	return l.f.result, l.f.enc, l.f.ok
}

// Complete publishes the leader's record and wakes the followers. The record
// is encoded once, here: the returned bytes are what every later reader of
// the flight receives. Uncacheable records (cancellations, engine failures)
// are delivered to the waiting followers but evicted from the cache, so
// later identical submissions re-run.
func (l *Lease) Complete(r Result) []byte {
	if !l.leader {
		panic("service: Complete on a follower lease")
	}
	enc := r.encode()
	l.c.mu.Lock()
	l.f.result, l.f.enc, l.f.ok = r, enc, true
	if !r.Cacheable() {
		delete(l.c.flights, l.key)
	}
	l.c.mu.Unlock()
	close(l.f.done)
	return enc
}

// Abort drops the leader's flight without a record: followers wake with
// ok == false and the key is free for the next submission.
func (l *Lease) Abort() {
	if !l.leader {
		panic("service: Abort on a follower lease")
	}
	l.c.mu.Lock()
	delete(l.c.flights, l.key)
	l.c.mu.Unlock()
	close(l.f.done)
}

// Begin claims a key. The first submission of a key becomes the leader and
// must end its flight with Complete or Abort; concurrent identical
// submissions join the leader's flight; submissions of a completed key get
// an already-done lease (a cache hit).
func (c *Cache) Begin(key string) *Lease {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		select {
		case <-f.done:
			c.hits.Add(1)
		default:
			c.joins.Add(1)
		}
		return &Lease{c: c, key: key, f: f}
	}
	c.misses.Add(1)
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	return &Lease{c: c, key: key, f: f, leader: true}
}

// Lookup answers a submission from a completed record without a lease: when
// key's flight has completed, it counts a hit and returns the record and its
// encoding. A completed flight still in the table holds a cacheable record,
// since Complete evicts the others and Abort evicts its flight. An unknown or
// in-flight key counts nothing; the submission then claims it with Begin.
func (c *Cache) Lookup(key string) (Result, []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.flights[key]
	if !ok {
		return Result{}, nil, false
	}
	select {
	case <-f.done:
	default:
		return Result{}, nil, false
	}
	c.hits.Add(1)
	return f.result, f.enc, true
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries := 0
	for _, f := range c.flights {
		select {
		case <-f.done:
			entries++
		default:
		}
	}
	c.mu.Unlock()
	return CacheStats{
		Hits:    c.hits.Load(),
		Joins:   c.joins.Load(),
		Misses:  c.misses.Load(),
		Entries: entries,
	}
}
