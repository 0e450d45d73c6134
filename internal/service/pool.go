// SessionPool: the daemon's explore.RuntimeSource. The engines' lanes lease
// warm sched.Sessions here instead of respawning process coroutines per job,
// so consecutive jobs over same-sized harnesses reuse parked runtimes.
// Sessions that report !Healthy() (closed by a lane after a failed run, or
// broken by a runtime invariant violation) are discarded, never recycled.

package service

import (
	"sync"
	"sync/atomic"

	"mpcn/internal/sched"
)

// PoolStats are the pool's counters.
type PoolStats struct {
	// Reused counts Acquires served from a warm session; Spawned counts
	// fresh NewSession spawns; Discarded counts Released sessions dropped
	// (unhealthy, or idle capacity full).
	Reused    int64 `json:"reused"`
	Spawned   int64 `json:"spawned"`
	Discarded int64 `json:"discarded"`
	// Idle is the number of warm sessions currently parked.
	Idle int `json:"idle"`
}

// SessionPool keeps warm sched.Sessions keyed on their process count. Safe
// for concurrent use by the engine workers of concurrent jobs.
type SessionPool struct {
	mu     sync.Mutex
	idle   map[int][]*sched.Session
	keys   map[*sched.Session]int
	maxPer int
	closed bool

	reused    atomic.Int64
	spawned   atomic.Int64
	discarded atomic.Int64
}

// NewSessionPool builds a pool parking up to maxPerKey idle sessions per
// process count (<= 0 selects 8).
func NewSessionPool(maxPerKey int) *SessionPool {
	if maxPerKey <= 0 {
		maxPerKey = 8
	}
	return &SessionPool{
		idle:   make(map[int][]*sched.Session),
		keys:   make(map[*sched.Session]int),
		maxPer: maxPerKey,
	}
}

// Acquire implements explore.RuntimeSource.
func (p *SessionPool) Acquire(n int) (*sched.Session, error) {
	p.mu.Lock()
	if q := p.idle[n]; len(q) > 0 {
		rt := q[len(q)-1]
		p.idle[n] = q[:len(q)-1]
		p.mu.Unlock()
		p.reused.Add(1)
		return rt, nil
	}
	p.mu.Unlock()
	rt, err := sched.NewSession(n)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.keys[rt] = n
	p.mu.Unlock()
	p.spawned.Add(1)
	return rt, nil
}

// Release implements explore.RuntimeSource: healthy sessions park for the
// next job; broken or surplus ones close.
func (p *SessionPool) Release(rt *sched.Session) {
	if rt == nil {
		return
	}
	p.mu.Lock()
	key, known := p.keys[rt]
	healthy := known && rt.Healthy() && !p.closed
	if healthy && len(p.idle[key]) < p.maxPer {
		p.idle[key] = append(p.idle[key], rt)
		p.mu.Unlock()
		return
	}
	delete(p.keys, rt)
	p.mu.Unlock()
	p.discarded.Add(1)
	rt.Close()
}

// Close drains and closes every idle session; subsequent Releases close
// their sessions too (Acquire still works, spawning one-shot sessions).
func (p *SessionPool) Close() {
	p.mu.Lock()
	p.closed = true
	var all []*sched.Session
	for key, q := range p.idle {
		all = append(all, q...)
		delete(p.idle, key)
	}
	for _, rt := range all {
		delete(p.keys, rt)
	}
	p.mu.Unlock()
	for _, rt := range all {
		rt.Close()
	}
}

// Stats snapshots the counters.
func (p *SessionPool) Stats() PoolStats {
	p.mu.Lock()
	idle := 0
	for _, q := range p.idle {
		idle += len(q)
	}
	p.mu.Unlock()
	return PoolStats{
		Reused:    p.reused.Load(),
		Spawned:   p.spawned.Load(),
		Discarded: p.discarded.Load(),
		Idle:      idle,
	}
}
