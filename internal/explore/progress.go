// Progress: the live counter surface of a running job of either engine. The
// lanes publish into atomic counters (one add per completed run — a sampled
// run counts as one — negligible next to the replay itself; a lane's store
// probes go to the store every 64 runs and when the lane retires) and the
// visited-state store's (or the sampler's coverage store's) own atomic counters
// are snapshotted on demand, so a concurrent observer (the exploredd
// daemon's NDJSON progress stream) can poll a running job without locks and
// without perturbing the hot path. When the job returns, the store's
// final counters are saved and the store itself is let go, so a finished
// job's Progress does not keep its store alive.

package explore

import "sync/atomic"

// Progress receives live counters from a running job via Config.Progress
// (explore's or sample's). The zero value is ready to use; one Progress must
// not be shared by concurrent jobs (their counters would blend).
type Progress struct {
	runs   atomic.Int64
	pruned atomic.Int64
	store  atomic.Pointer[dedupStore]
	final  atomic.Pointer[DedupStats] // the detached store's last counters
}

// ProgressSnapshot is one observation of a running exploration.
type ProgressSnapshot struct {
	// Runs is the number of complete runs executed (or samples drawn) so
	// far.
	Runs int64 `json:"runs"`
	// Pruned is the number of decision alternatives dropped by reduction so
	// far.
	Pruned int64 `json:"pruned"`
	// Dedup snapshots the visited-state store counters (zero unless the
	// exploration runs with Config.Dedup, or the sampling run with
	// Coverage).
	Dedup DedupStats `json:"dedup"`
}

// add publishes completed runs and pruned alternatives; nil-safe so the
// lanes call it unconditionally.
func (p *Progress) add(runs, pruned int64) {
	if p == nil {
		return
	}
	if runs != 0 {
		p.runs.Add(runs)
	}
	if pruned != 0 {
		p.pruned.Add(pruned)
	}
}

// attach exposes the exploration's visited-state store for snapshots.
func (p *Progress) attach(st *dedupStore) {
	if p == nil || st == nil {
		return
	}
	p.store.Store(st)
}

// detach saves the attached store's final counters and drops the store.
// The engines defer it once their workers have stopped.
func (p *Progress) detach() {
	if p == nil {
		return
	}
	if st := p.store.Load(); st != nil {
		d := st.snapshot()
		p.final.Store(&d)
		p.store.Store(nil)
	}
}

// Snapshot returns the current counters. Safe to call concurrently with the
// exploration (and on a nil Progress, which reports zeros).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	s := ProgressSnapshot{Runs: p.runs.Load(), Pruned: p.pruned.Load()}
	if st := p.store.Load(); st != nil {
		s.Dedup = st.snapshot()
	} else if d := p.final.Load(); d != nil {
		s.Dedup = *d
	}
	return s
}
