// The visited-state store behind Config.Dedup: a lock-striped,
// power-of-two-sharded fingerprint set grown on demand up to a memory
// ceiling, with a bounded-memory eviction policy, per-shard stats, and a
// lock-free read path that writes nothing on a hit.
//
// Exploration with Dedup computes a canonical state fingerprint (sched
// control points + the harness's Session.Fingerprint) at every NEW branching
// node — a decision node the walker creates that has two or more
// alternatives — and asks the store whether the state was already visited.
// A hit cuts the node's subtree: the whole decision tree below a converged
// state collapses to the single leftmost completion path, converting the DFS
// over the decision *tree* into exploration of the state *graph*.
//
// Soundness (why cutting at a hit never loses behaviors):
//
//   - Subtree ownership is structural, not store-mediated. A branching node
//     is fingerprinted exactly once — when the walker first creates it (depth
//     >= the replay's backtrack point); re-traversals of the node during later
//     replays of the same prefix skip the store entirely. The first inserter
//     of a fingerprint therefore always finishes expanding its subtree, no
//     matter what happens to the store afterwards: evictions and capacity
//     limits only cause re-expansion (lost reduction), never lost coverage.
//   - Singleton nodes (one alternative) are never probed, and that loses no
//     cut. A singleton's only child state is a function of its state (the
//     fingerprint folds the crashed flags and, under Prune, the previous
//     decision, which fix the alternatives), so the first uncut visitor of a
//     singleton state goes on, in the same run, to its first branching
//     descendant and probes that; a later visitor of the same state reaches
//     the same descendant along the same forced path and is cut there. A cut
//     at the singleton would have dropped no alternative, so while nothing
//     is evicted the explored leaves, runs, pruned and cut counts are those
//     of probing every node; only Lookups, States and Hits fall.
//   - States below a cut are not inserted: a cut run completes along its
//     leftmost remaining path without claiming ownership of anything, so a
//     hit can only ever cite a state whose first visitor expands it.
//   - The fingerprint covers everything that determines the subtree: the
//     shared-object state and harness logs (Session.Fingerprint), each
//     process's control point (pending label, crashed flag, step count — so
//     states are depth-stamped and the state graph is acyclic, which also
//     makes cuts safe under MaxSteps), each process's observation digest
//     (sched.Observe: every value read from shared state, which pins the
//     in-flight local state that control points alone cannot — e.g. a
//     commit-adopt proposer's scanned-but-unwritten vote), and, under
//     Prune, the previous decision (the partial-order-reduction context;
//     see explore.go).
//   - The remaining gap is 128-bit fingerprint collisions (astronomically
//     unlikely, inherent to hashing checkers) and harnesses whose checkers
//     observe state outside the fingerprint — Session.Fingerprint documents
//     that contract.
//
// The store is shared by every worker of a parallel exploration: a state
// first visited in one worker's subtree cuts converged branches in all
// others. Coverage is unaffected (the first inserter still exhausts its
// subtree, workers abandon subtrees only when the whole exploration stops),
// but which branches get cut — and hence the visited-run count — depends on
// worker timing; only the sequential explorer's dedup run counts are
// deterministic.
//
// # Concurrency: seqlock entries, lock-free probes
//
// Each slot is three atomic 64-bit words {lo, hi, stamp} written seqlock
// style: a writer (always under the shard mutex, so writers are mutually
// exclusive) first stores stamp=0, then lo and hi, then the new nonzero
// stamp. Stamps are draws from a monotone per-shard counter, so a stamp
// value never repeats. A probe is lock-free: it loads the stamp, loads lo/hi,
// and on a match re-loads the stamp to verify nothing moved underneath;
// since stamps never repeat, an unchanged stamp proves the two fingerprint
// words were stable. A stamp of 0 (empty or mid-write) ends the probe: an
// insert always takes the first empty slot of its window (or overwrites the
// oldest entry of a full one) and slots never empty out again, so nothing of
// the window lies beyond an empty slot. A probe
// that finds its fingerprint returns "visited" without ever taking the lock;
// a probe that misses — or reads a torn slot — falls back to the mutex,
// re-probes, and inserts, which preserves the store's exactness guarantee:
// for each resident fingerprint exactly one caller ever gets "not visited".
//
// # Hits write nothing: engine-side lookups, LRU refresh only at the ceiling
//
// Nearly every probe hits (about 99% on the sampling workloads), so the hit
// path is kept free of writes to shared memory: with several workers, a
// per-shard counter or stamp bumped on every hit bounces its cache line
// between cores and costs more than the probe itself. Two consequences:
//
//   - The store counts inserts (States) and evictions, not probes. Engines
//     count their own probes on their lane (Lane.Visit, one plain increment
//     each) and publish the count with addLookups every lookupBatch runs
//     and when the lane retires, so the shared counter takes one atomic add
//     per 64 runs of a worker, not one per run. Hits is derived as
//     Lookups − States, exact once the engines have returned, because every
//     visit is either a hit or an insert. A snapshot taken mid-run may see
//     inserts whose probes are not yet published; it reports Lookups as at
//     least States, so Hits is never negative and the identity holds in
//     every snapshot.
//   - A hit refreshes its entry's LRU stamp (a best-effort CAS) only in a
//     table at the shard's ceiling. Only such a table evicts, so only there
//     does a stamp choose a victim; below the ceiling a full window grows
//     the table instead, and stamps simply keep insertion order.
//
// # Growth: tables grown on demand under a memory ceiling
//
// The memory budget (Config.DedupMem, sample.Config.CoverageMem) is a
// ceiling, not an allocation. Each shard reaches its slots through an atomic
// pointer to a fixed-size {slots, mask} table that starts at 64 slots, two
// probe windows. An insert that finds its window full, in a shard below its
// ceiling, rehashes the entries — stamps included — into a table twice the
// size, publishes it and retries; only a shard at its ceiling evicts. The
// window is 32 slots because linear probing clusters: a 16-slot window
// overflowed, and so doubled its table, at 25–55% load (the larger the
// table, the more windows it has to overflow, and the earlier it grows),
// where a 32-slot one holds out to 45–70%, so a grown store spends fewer
// slots per resident state. A table smaller than the window (the 16-slot
// minimum store that DedupMem 1 gives) probes all of itself. While
// nothing is evicted the store therefore holds exactly the set of inserted
// fingerprints, as a table preallocated at the ceiling would. A lock-free
// probe may still be reading a superseded table. Nothing writes to such a
// table after the rehash (it was below the ceiling, so its hits never
// restamp), so every fingerprint it finds there really was inserted and its
// hit is real; a miss
// falls through to the mutex, which probes the current table. The stamps
// copied into a new table were already unique in the old one, and the new
// table is invisible to probes until published, so stamps still never repeat
// within a table a probe can see.

package explore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mpcn/internal/sched"
)

const (
	// dedupEntryBytes is the in-table size of one visited state.
	dedupEntryBytes = 24
	// dedupProbeWindow is the linear-probe window; an insert that finds the
	// whole window occupied grows the shard's table, or, at the shard's
	// ceiling, evicts the window's oldest entry. A table smaller than the
	// window probes all of its slots instead.
	dedupProbeWindow = 32
	// dedupMinSlots is the smallest shard ceiling: a store squeezed below it
	// still gets 16 slots, and evicts from its 17th state on.
	dedupMinSlots = 16
	// dedupInitialSlots is a shard's starting table: two probe windows
	// (1.5 KiB), about 96 KiB for a store of DefaultDedupShards shards.
	dedupInitialSlots = 2 * dedupProbeWindow
	// DefaultDedupMem bounds the visited-state store when Config.DedupMem is
	// zero. Each shard's ceiling rounds its 1 MiB share down to a power of
	// two, so the default store tops out at 2,097,152 slots (48 MiB); a
	// shard starts to evict once one probe window of its ceiling table is
	// full, before every slot is.
	DefaultDedupMem = 64 << 20
	// DefaultDedupShards is the lock-stripe count when Config.DedupShards is
	// zero. 64 shards keep write contention negligible for any sane worker
	// count (reads never contend: probes are lock-free).
	DefaultDedupShards = 64
)

// dedupEntry is one resident fingerprint: a seqlock of three atomic words.
// stamp is the shard-local insertion (or last-hit) sequence number; 0 marks
// a slot that is empty or mid-write.
type dedupEntry struct {
	lo, hi atomic.Uint64
	stamp  atomic.Uint64
}

// dedupTable is one generation of a shard's slot array. Its size never
// changes: a shard grows by publishing a bigger table, so a lock-free probe
// that loaded the previous table keeps a consistent {slots, mask} pair.
// span is the probe window within it: dedupProbeWindow, or every slot of a
// smaller table. atCeiling marks the shard's last generation, the only one
// that evicts and so the only one whose hits refresh stamps.
type dedupTable struct {
	slots     []dedupEntry
	mask      uint64
	span      uint64
	atCeiling bool
}

func newDedupTable(slots, ceiling int) *dedupTable {
	return &dedupTable{
		slots: make([]dedupEntry, slots), mask: uint64(slots - 1),
		span: uint64(min(slots, dedupProbeWindow)), atCeiling: slots >= ceiling,
	}
}

// dedupShard is one stripe: a power-of-two open-addressing table with
// window-local oldest-entry eviction (an approximate LRU — at the ceiling,
// hits refresh the stamp — that makes the store's memory strictly bounded).
// The table starts small and doubles whenever an insert finds its probe
// window full, up to ceiling slots; only a shard at its ceiling evicts. The
// mutex guards writes and growth; probes read the seqlock entries lock-free.
// The counters are atomic, exact, and written only under the mutex.
type dedupShard struct {
	mu      sync.Mutex
	table   atomic.Pointer[dedupTable]
	ceiling int // slots the table may grow to: the shard's share of the memory bound
	stamp   atomic.Uint64
	occ     atomic.Int64
	inserts atomic.Int64
	evicted atomic.Int64
}

// dedupStore is the sharded visited-state set. Shard selection uses the
// fingerprint's high half, slot addressing its low half, so the two are
// uncorrelated. lookups is the probe count the engines publish (addLookups).
type dedupStore struct {
	shards  []dedupShard
	mask    uint64
	lookups atomic.Int64
}

// ceilPow2 rounds up to a power of two (minimum 1).
func ceilPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// newDedupStore bounds a store to memBytes across shards lock stripes.
// shards is rounded up to a power of two; each shard's ceiling is the
// largest power-of-two slot count fitting its share of the budget (minimum
// dedupMinSlots). Shards start at dedupInitialSlots (or their ceiling, if
// smaller) and grow on demand, so memBytes caps the store rather than being
// allocated up front.
func newDedupStore(memBytes, shards int) *dedupStore {
	if memBytes <= 0 {
		memBytes = DefaultDedupMem
	}
	if shards <= 0 {
		shards = DefaultDedupShards
	}
	shards = ceilPow2(shards)
	perShard := memBytes / shards / dedupEntryBytes
	ceiling := 1
	for ceiling*2 <= perShard {
		ceiling <<= 1
	}
	ceiling = max(ceiling, dedupMinSlots)
	initial := min(ceiling, dedupInitialSlots)
	st := &dedupStore{shards: make([]dedupShard, shards), mask: uint64(shards - 1)}
	for i := range st.shards {
		st.shards[i].ceiling = ceiling
		st.shards[i].table.Store(newDedupTable(initial, ceiling))
	}
	return st
}

// visit reports whether fp was already in the store, inserting it if not.
// Exactly one caller ever gets "false" for a given resident fingerprint; a
// full probe window grows the shard's table, or, at the shard's ceiling,
// evicts the window's oldest entry (bounded memory, approximate LRU). The
// hit path is lock-free and, below the ceiling, read-only (see the package
// comment); only a miss or a torn read takes the shard mutex. Callers count
// their visits and publish the count with addLookups.
func (st *dedupStore) visit(fp sched.Fingerprint) bool {
	sh := &st.shards[fp.Hi&st.mask]
	t := sh.table.Load()
	home := fp.Lo
	for i := uint64(0); i < t.span; i++ {
		s := &t.slots[(home+i)&t.mask]
		st1 := s.stamp.Load()
		if st1 == 0 {
			// Empty (fp is absent: nothing lies beyond a window's first empty
			// slot) or mid-write; either way the slow path decides under the lock.
			break
		}
		if s.lo.Load() == fp.Lo && s.hi.Load() == fp.Hi {
			if s.stamp.Load() != st1 {
				break // torn read: a writer moved the slot; resolve under the lock
			}
			if t.atCeiling {
				// Best-effort LRU refresh: keep hot states resident. A failed
				// CAS means a writer (or another hit) already restamped the slot.
				s.stamp.CompareAndSwap(st1, sh.stamp.Add(1))
			}
			return true
		}
	}
	return sh.visitSlow(fp)
}

// visitSlow is the write path: under the shard mutex it re-probes the
// current table (the fingerprint may have been inserted, or the table
// replaced, since the lock-free miss), grows the table while the window is
// full and the shard is below its ceiling, and inserts into a free slot or
// over the window's oldest entry. It reports a hit exactly like the fast
// path would.
func (sh *dedupShard) visitSlow(fp sched.Fingerprint) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.table.Load()
	match, free, victim := t.window(fp.Lo, fp.Hi)
	if match >= 0 {
		if t.atCeiling {
			t.slots[match].stamp.Store(sh.stamp.Add(1)) // refresh: hot states stay resident
		}
		return true
	}
	// A rehash never adds fp, so after growing only free and victim change.
	for free < 0 && len(t.slots) < sh.ceiling {
		t = sh.grow(t)
		_, free, victim = t.window(fp.Lo, fp.Hi)
	}
	slot := free
	if slot < 0 {
		slot = victim
		sh.evicted.Add(1)
	} else {
		sh.occ.Add(1)
	}
	sh.inserts.Add(1)
	t.put(slot, fp.Lo, fp.Hi, sh.stamp.Add(1))
	return false
}

// window scans the probe window of the fingerprint {lo, hi}: match is the
// slot holding it (-1 if none), free the first empty slot (-1 if none) and,
// for a full window, victim the slot with the oldest stamp. Callers hold the
// shard mutex, so no slot is mid-write. The scan stops at the first empty
// slot: an entry is always written to the first empty slot of its window
// (or over a victim in a full one) and slots never empty out again, so no
// entry lies beyond it.
func (t *dedupTable) window(lo, hi uint64) (match, free, victim int) {
	victim = -1
	var victimStamp uint64
	for i := uint64(0); i < t.span; i++ {
		idx := int((lo + i) & t.mask)
		s := &t.slots[idx]
		stamp := s.stamp.Load()
		if stamp == 0 {
			return -1, idx, -1
		}
		if s.lo.Load() == lo && s.hi.Load() == hi {
			return idx, -1, -1
		}
		if victim < 0 || stamp < victimStamp {
			victim, victimStamp = idx, stamp
		}
	}
	return -1, -1, victim
}

// put writes an entry in seqlock order: empty the slot, fill the
// fingerprint words, then publish the stamp. A concurrent probe either reads
// stamp 0 or detects the restamp, and falls back to the locked path.
func (t *dedupTable) put(idx int, lo, hi, stamp uint64) {
	s := &t.slots[idx]
	s.stamp.Store(0)
	s.lo.Store(lo)
	s.hi.Store(hi)
	s.stamp.Store(stamp)
}

// grow replaces t, the shard's current table, with a rehashed copy twice its
// size — or larger, should a window of the doubled table overflow — and
// publishes it. Called under the shard mutex, with t below the ceiling.
func (sh *dedupShard) grow(t *dedupTable) *dedupTable {
	for n := 2 * len(t.slots); ; n *= 2 {
		next := newDedupTable(n, sh.ceiling)
		if sh.rehash(next, t, next.atCeiling) {
			sh.table.Store(next)
			return next
		}
	}
}

// rehash copies old's entries, stamps included, into the unpublished table
// next. An entry whose window in next is full makes it report false, unless
// evict is set (next is at the ceiling): then the older of the entry and the
// window's oldest is dropped and counted as an eviction, as an insert at the
// ceiling would.
func (sh *dedupShard) rehash(next, old *dedupTable, evict bool) bool {
	for i := range old.slots {
		s := &old.slots[i]
		stamp := s.stamp.Load()
		if stamp == 0 {
			continue
		}
		lo, hi := s.lo.Load(), s.hi.Load()
		_, free, victim := next.window(lo, hi)
		if free < 0 {
			if !evict {
				return false
			}
			sh.evicted.Add(1)
			sh.occ.Add(-1)
			if next.slots[victim].stamp.Load() > stamp {
				continue // the entry itself is the window's oldest
			}
			free = victim
		}
		next.put(free, lo, hi, stamp)
	}
	return true
}

// DedupStats summarizes the visited-state store of one exploration (zero
// unless Config.Dedup was set).
type DedupStats struct {
	// Lookups is the number of fingerprint probes (one per new branching
	// decision node of an exploration, one per decision of a sampled run
	// with coverage), as the engines publish them in batches of runs: exact
	// once the exploration has returned, and never below States in a mid-run
	// snapshot.
	Lookups int64
	// Hits is the number of probes that found their state already visited —
	// each hit cut one converged subtree. It is Lookups − States: every
	// probe either hits or inserts.
	Hits int64
	// States is the number of fingerprints inserted (distinct states
	// discovered; evicted states that are re-discovered count again). An
	// exploration inserts branching states only: a state with one
	// alternative is never looked up.
	States int64
	// Evictions is the number of resident states dropped by the
	// bounded-memory policy. Evictions never make cuts unsound — they only
	// cost reduction (an evicted state found again is re-expanded).
	Evictions int64
	// CutAlternatives is the number of decision alternatives dropped inside
	// cut subtrees (the dedup analogue of Stats.Pruned).
	CutAlternatives int
	// Shards, Capacity, Slots and Occupied describe the store: lock
	// stripes, the entry slots the store may grow to (the ceiling set by
	// DedupMem or CoverageMem), the slots its tables hold now (each costs
	// dedupEntryBytes, 24 B, resident or not) and the slots in use.
	Shards   int
	Capacity int
	Slots    int
	Occupied int
}

// String renders the store counters compactly; slots is the live table
// size, so slots×24 B / occupied is what each resident state costs.
func (d DedupStats) String() string {
	return fmt.Sprintf("states=%d hits=%d cut=%d evictions=%d occupied=%d/%d slots=%d shards=%d",
		d.States, d.Hits, d.CutAlternatives, d.Evictions, d.Occupied, d.Capacity, d.Slots, d.Shards)
}

// addLookups publishes n probes counted by a caller of visit. Lanes call it
// with the probes of a batch of runs, so the shared counter is written per
// batch, not per probe.
func (st *dedupStore) addLookups(n int64) {
	if n != 0 {
		st.lookups.Add(n)
	}
}

// snapshot aggregates the per-shard counters and the published lookups.
func (st *dedupStore) snapshot() DedupStats {
	var d DedupStats
	if st == nil {
		return d
	}
	d.Shards = len(st.shards)
	for i := range st.shards {
		sh := &st.shards[i]
		d.States += sh.inserts.Load()
		d.Evictions += sh.evicted.Load()
		d.Capacity += sh.ceiling
		d.Slots += len(sh.table.Load().slots)
		d.Occupied += int(sh.occ.Load())
	}
	// Mid-run, inserts can be ahead of the lookups published for them.
	d.Lookups = max(st.lookups.Load(), d.States)
	d.Hits = d.Lookups - d.States
	return d
}

// ShardStats reports one lock stripe's counters (diagnostic surface for
// tuning DedupShards/DedupMem). Probes are counted per store, not per
// shard, so a stripe reports inserts and residency only.
type ShardStats struct {
	Shard     int
	States    int64
	Evictions int64
	Occupied  int
	Slots     int // the slots the stripe's table holds now
	Capacity  int
}

// shardStats snapshots every stripe.
func (st *dedupStore) shardStats() []ShardStats {
	out := make([]ShardStats, len(st.shards))
	for i := range st.shards {
		sh := &st.shards[i]
		out[i] = ShardStats{
			Shard: i, States: sh.inserts.Load(), Evictions: sh.evicted.Load(),
			Occupied: int(sh.occ.Load()), Slots: len(sh.table.Load().slots), Capacity: sh.ceiling,
		}
	}
	return out
}
