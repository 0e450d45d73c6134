// VisitedStore: the exported handle over the sharded visited-state store of
// dedup.go, for engines that want distinct-state accounting without the
// exhaustive walker's cut-off machinery. The schedule-sampling engine
// (internal/explore/sample) uses it as a coverage estimator: every decision
// boundary of every sampled run is fingerprinted and offered to the store,
// and the insert count estimates how many distinct canonical states the
// sample stream has touched.

package explore

import (
	"weak"

	"mpcn/internal/sched"
)

// VisitedStore is a bounded-memory, lock-striped set of state fingerprints —
// the same store Config.Dedup builds internally, usable standalone. It is
// safe for concurrent use; memory is strictly bounded (at its ceiling, a
// full probe window evicts its oldest entry), so once eviction starts the
// distinct-state count OVER-counts: an evicted fingerprint that reappears is
// counted again as a fresh insert. The count is exact until the first
// eviction and an upper estimate after — treat a flat curve as meaningful
// (genuinely no new states) and a climbing one under eviction pressure with
// suspicion.
type VisitedStore struct {
	st *dedupStore
}

// NewVisitedStore builds a store whose memory ceiling is memBytes (0 =
// DefaultDedupMem) across shards lock stripes (0 = DefaultDedupShards,
// rounded up to a power of two). The ceiling is not allocated up front: the
// store starts at a few KiB per shard and grows on demand, evicting only
// once a shard reaches its share of the ceiling.
func NewVisitedStore(memBytes, shards int) *VisitedStore {
	return &VisitedStore{st: newDedupStore(memBytes, shards)}
}

// Reachable returns a function reporting whether v's backing store is
// still reachable from anywhere — a Progress, a lane, a runtime handed back
// warm. It holds no strong reference itself, so a leak check can ask after
// a job returned and the garbage collector ran.
func (v *VisitedStore) Reachable() func() bool {
	w := weak.Make(v.st)
	return func() bool { return w.Value() != nil }
}

// Visit reports whether fp was already resident, inserting it if not.
// Exactly one caller ever gets "false" for a given resident fingerprint. A
// hit writes no shared memory, so Visit does not count itself: callers that
// want Stats.Lookups and Stats.Hits count their visits and publish them with
// AddLookups.
func (v *VisitedStore) Visit(fp sched.Fingerprint) bool {
	return v.st.visit(fp)
}

// AddLookups publishes n Visit calls made by the caller. Engines count
// visits in a local and publish them in batches of runs, keeping the shared
// counter off the probe path.
func (v *VisitedStore) AddLookups(n int64) {
	v.st.addLookups(n)
}

// Stats snapshots the store counters. Stats.States is the insert count — the
// distinct-state estimate (exact until the first eviction). Stats.Lookups is
// the published visit count (see AddLookups) and Stats.Hits is Lookups −
// States: exact once every caller has published, and never negative.
func (v *VisitedStore) Stats() DedupStats {
	if v == nil {
		return DedupStats{}
	}
	return v.st.snapshot()
}
