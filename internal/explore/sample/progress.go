// Progress: the live counter surface of a running sampling job, mirroring
// explore.Progress for the probabilistic engine — atomic sample counts plus
// on-demand snapshots of the coverage estimator store, whose final counters
// are saved (and the store let go) when the run returns.

package sample

import (
	"sync/atomic"

	"mpcn/internal/explore"
)

// Progress receives live counters from a running sampling job via
// Config.Progress. The zero value is ready to use; one Progress must not be
// shared by concurrent sampling runs.
type Progress struct {
	samples atomic.Int64
	store   atomic.Pointer[explore.VisitedStore]
	final   atomic.Pointer[explore.DedupStats] // the detached store's last counters
}

// ProgressSnapshot is one observation of a running sampling job.
type ProgressSnapshot struct {
	// Samples is the number of completed sampled runs so far.
	Samples int64 `json:"samples"`
	// Distinct is the coverage estimator's distinct-state count (zero unless
	// the job runs with Config.Coverage).
	Distinct int64 `json:"distinct"`
	// Coverage snapshots the estimator store's full counters.
	Coverage explore.DedupStats `json:"coverage"`
}

// add publishes completed samples; nil-safe so workers call it
// unconditionally.
func (p *Progress) add(samples int64) {
	if p == nil {
		return
	}
	p.samples.Add(samples)
}

// attach exposes the job's coverage store for snapshots.
func (p *Progress) attach(st *explore.VisitedStore) {
	if p == nil || st == nil {
		return
	}
	p.store.Store(st)
}

// detach saves the attached store's final counters and drops the store, so
// a finished job's Progress does not keep it alive. The engines defer it
// once their workers have stopped.
func (p *Progress) detach() {
	if p == nil {
		return
	}
	if st := p.store.Load(); st != nil {
		d := st.Stats()
		p.final.Store(&d)
		p.store.Store(nil)
	}
}

// Snapshot returns the current counters. Safe to call concurrently with the
// sampling run (and on a nil Progress, which reports zeros).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	s := ProgressSnapshot{Samples: p.samples.Load()}
	if st := p.store.Load(); st != nil {
		s.Coverage = st.Stats()
	} else if d := p.final.Load(); d != nil {
		s.Coverage = *d
	}
	s.Distinct = s.Coverage.States
	return s
}
