// The visited-state store behind Config.Dedup: a lock-striped,
// power-of-two-sharded fingerprint set grown on demand up to a memory
// ceiling, with a bounded-memory eviction policy, per-shard stats, and,
// below the ceiling, a lock-free read path that writes nothing on a hit.
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
// # Concurrency: write-once slots below the ceiling, the mutex at it
//
// A slot is two atomic 64-bit words {lo, hi}. Below its ceiling a table's
// slots are written once, always under the shard mutex, lo first and hi
// last, and never overwritten: a full window grows the table instead. A
// lock-free probe loads hi and, only on a match, lo. Since hi is stored
// last and never changes once stored, a matching hi proves lo is final:
// there is no stamp to load, no re-check and no torn read. A slot whose hi
// reads 0 ends the probe: it is empty, mid-write, or holds a fingerprint
// whose Hi is 0, and in each case the mutex decides. An insert always takes
// the first empty slot of its window and slots never empty out again, so
// nothing of the window lies beyond an empty slot. Under the mutex a slot is
// empty when (lo, hi) == (0, 0); that one fingerprint, which no slot can
// hold, is a per-shard flag (dedupShard.zero), set under the mutex and never
// evicted. A probe that misses falls back to the mutex, re-probes and
// inserts, which preserves the store's exactness guarantee: for each
// resident fingerprint exactly one caller ever gets "not visited".
//
// A shard's ceiling table (atCeiling), the one generation that evicts, is
// probed only under the shard mutex: its slots are overwritten, so a
// lock-free reader could see a torn pair. It alone keeps an LRU stamp per
// slot, in a side array of plain words the mutex guards, drawn from a
// monotone per-shard clock.
//
// # Hits write nothing: engine-side lookups, LRU refresh only at the ceiling
//
// Nearly every probe hits (about 99% on the sampling workloads), so the hit
// path is kept free of writes to shared memory: with several workers, a
// per-shard counter bumped on every hit bounces its cache line between cores
// and costs more than the probe itself. Two consequences:
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
//   - Only a hit in a ceiling table restamps its entry, under the mutex it
//     was probed under. Only such a table evicts, so only there does a
//     stamp choose a victim; below the ceiling a full window grows the table
//     instead, and slots carry no stamp at all.
//
// # Growth: tables grown on demand under a memory ceiling
//
// The memory budget (Config.DedupMem, sample.Config.CoverageMem) is a
// ceiling, not an allocation. Each shard reaches its slots through an atomic
// pointer to a fixed-size {slots, mask} table that starts at 64 slots, two
// probe windows. An insert that finds its window full, in a shard below its
// ceiling, rehashes the entries into a table twice the size, publishes it
// and retries; only a shard at its ceiling evicts. The rehash that grows
// into the ceiling table stamps the entries in the order it copies them, and
// a window that overflows there drops its oldest entry, as an insert at the
// ceiling would. The ceiling is sized in 24-byte slots (dedupEntryBytes: the
// fingerprint and its stamp); a slot below it costs 16 B. The window is 32
// slots because linear probing clusters: a 16-slot window overflowed, and so
// doubled its table, at 25–55% load (the larger the table, the more windows
// it has to overflow, and the earlier it grows), where a 32-slot one holds
// out to 45–70%, so a grown store spends fewer slots per resident state. A
// table smaller than the window (the 16-slot minimum store that DedupMem 1
// gives) probes all of itself. While nothing is evicted the store therefore
// holds exactly the set of inserted fingerprints, as a table preallocated at
// the ceiling would. A lock-free probe may still be reading a superseded table.
// Nothing writes to such a table after the rehash, so every fingerprint it
// finds there really was inserted and its hit is real; a miss falls through
// to the mutex, which probes the current table. A new table is invisible to
// probes until published, and the publishing store orders every slot write
// of the rehash before it.

package explore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mpcn/internal/sched"
)

const (
	// dedupSlotBytes is the size of one slot: a fingerprint's two words.
	dedupSlotBytes = 16
	// dedupEntryBytes is what one slot of a ceiling table costs: the
	// fingerprint and its 8-byte LRU stamp. Shard ceilings are sized in it,
	// so a budget buys the same slot count whichever tables it ends up in.
	dedupEntryBytes = dedupSlotBytes + 8
	// dedupProbeWindow is the linear-probe window; an insert that finds the
	// whole window occupied grows the shard's table, or, at the shard's
	// ceiling, evicts the window's oldest entry. A table smaller than the
	// window probes all of its slots instead.
	dedupProbeWindow = 32
	// dedupMinSlots is the smallest shard ceiling: a store squeezed below it
	// still gets 16 slots, and evicts from its 17th state on.
	dedupMinSlots = 16
	// dedupInitialSlots is a shard's starting table: two probe windows
	// (1 KiB), about 64 KiB for a store of DefaultDedupShards shards.
	dedupInitialSlots = 2 * dedupProbeWindow
	// DefaultDedupMem bounds the visited-state store when Config.DedupMem is
	// zero. Each shard's ceiling rounds its 1 MiB share down to a power of
	// two of dedupEntryBytes slots, so the default store tops out at
	// 2,097,152 slots (48 MiB); a shard starts to evict once one probe
	// window of its ceiling table is full, before every slot is.
	DefaultDedupMem = 64 << 20
	// DefaultDedupShards is the lock-stripe count of every store whose
	// budget gives each of them dedupMinSlots ceiling slots (24 KiB or
	// more). 64 shards keep write contention negligible for any sane worker
	// count (reads below the ceiling never contend: probes are lock-free).
	DefaultDedupShards = 64
)

// dedupSlot is one resident fingerprint, or an empty slot if both words are
// 0. Below the ceiling it is written once, hi last (see the package comment).
type dedupSlot struct {
	lo, hi atomic.Uint64
}

// dedupTable is one generation of a shard's slot array. Its size never
// changes: a shard grows by publishing a bigger table, so a lock-free probe
// that loaded the previous table keeps a consistent {slots, mask} pair.
// span is the probe window within it: dedupProbeWindow, or every slot of a
// smaller table. atCeiling marks the shard's last generation, the only one
// that evicts; it alone has stamps, slot i's LRU stamp (0 while the slot is
// empty), read and written under the shard mutex only.
type dedupTable struct {
	slots     []dedupSlot
	stamps    []uint64
	mask      uint64
	span      uint64
	atCeiling bool
}

func newDedupTable(slots, ceiling int) *dedupTable {
	t := &dedupTable{
		slots: make([]dedupSlot, slots), mask: uint64(slots - 1),
		span: uint64(min(slots, dedupProbeWindow)), atCeiling: slots >= ceiling,
	}
	if t.atCeiling {
		t.stamps = make([]uint64, slots)
	}
	return t
}

// dedupShard is one stripe: a power-of-two open-addressing table with
// window-local oldest-entry eviction (an approximate LRU — at the ceiling,
// hits refresh the stamp — that makes the store's memory strictly bounded).
// The table starts small and doubles whenever an insert finds its probe
// window full, up to ceiling slots; only a shard at its ceiling evicts. The
// mutex guards writes, growth, the clock, the zero flag and every access to
// a ceiling table; probes below the ceiling read the slots lock-free. The
// counters are atomic, exact, and written only under the mutex.
type dedupShard struct {
	mu      sync.Mutex
	table   atomic.Pointer[dedupTable]
	ceiling int    // slots the table may grow to: the shard's share of the memory bound
	clock   uint64 // the last stamp drawn in the ceiling table
	zero    bool   // the fingerprint (0, 0) is resident
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
// shards is rounded up to a power of two; shards <= 0 derives the count
// from the budget: DefaultDedupShards, halved until each shard's share
// holds dedupMinSlots ceiling slots or one shard is left, so every budget
// of 24 KiB or more gets 64 shards and a 1-byte budget the one-shard
// 16-slot store. Each shard's ceiling is the largest power-of-two slot
// count fitting its share of the budget (minimum dedupMinSlots). Shards
// start at dedupInitialSlots (or their ceiling, if smaller) and grow on
// demand, so memBytes caps the store rather than being allocated up front.
func newDedupStore(memBytes, shards int) *dedupStore {
	if memBytes <= 0 {
		memBytes = DefaultDedupMem
	}
	if shards <= 0 {
		shards = DefaultDedupShards
		for shards > 1 && memBytes/shards/dedupEntryBytes < dedupMinSlots {
			shards /= 2
		}
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
// evicts the window's oldest entry (bounded memory, approximate LRU). Below
// the ceiling the hit path is lock-free and read-only (see the package
// comment); a miss, and every probe of a ceiling table, takes the shard
// mutex. Callers count their visits and publish the count with addLookups.
func (st *dedupStore) visit(fp sched.Fingerprint) bool {
	sh := &st.shards[fp.Hi&st.mask]
	t := sh.table.Load()
	if !t.atCeiling {
		for i := uint64(0); i < t.span; i++ {
			s := &t.slots[(fp.Lo+i)&t.mask]
			hi := s.hi.Load()
			if hi == 0 {
				// Empty (fp is absent: nothing lies beyond a window's first
				// empty slot), mid-write, or a Hi of 0: the mutex decides.
				break
			}
			if hi == fp.Hi && s.lo.Load() == fp.Lo {
				return true
			}
		}
	}
	return sh.visitLocked(fp)
}

// visitLocked is the write path and the ceiling table's only probe: under
// the shard mutex it probes the current table (the fingerprint may have been
// inserted, or the table replaced, since a lock-free miss) and inserts on a
// miss. A hit in a ceiling table restamps its entry. The mutex is released
// by hand, not deferred: at the ceiling every hit comes through here.
func (sh *dedupShard) visitLocked(fp sched.Fingerprint) bool {
	sh.mu.Lock()
	if fp == (sched.Fingerprint{}) {
		visited := sh.zero
		if !visited {
			sh.zero = true
			sh.occ.Add(1)
			sh.inserts.Add(1)
		}
		sh.mu.Unlock()
		return visited
	}
	t := sh.table.Load()
	match, free := t.window(fp.Lo, fp.Hi)
	if match >= 0 {
		if t.atCeiling {
			sh.clock++
			t.stamps[match] = sh.clock // refresh: hot states stay resident
		}
		sh.mu.Unlock()
		return true
	}
	sh.insert(t, free, fp.Lo, fp.Hi)
	sh.mu.Unlock()
	return false
}

// insert adds the fingerprint {lo, hi}, which t's window lacks, at free, the
// window's first empty slot. While the window is full (free < 0) and the
// shard is below its ceiling it grows the table; at the ceiling it
// overwrites the window's oldest entry. Called under the shard mutex.
func (sh *dedupShard) insert(t *dedupTable, free int, lo, hi uint64) {
	// A rehash never adds the fingerprint, so after growing only free changes.
	for free < 0 && !t.atCeiling {
		t = sh.grow(t)
		_, free = t.window(lo, hi)
	}
	if free < 0 {
		free = t.oldest(lo)
		sh.evicted.Add(1)
	} else {
		sh.occ.Add(1)
	}
	sh.inserts.Add(1)
	sh.put(t, free, lo, hi)
}

// window scans the probe window of the fingerprint {lo, hi}, which is not
// (0, 0): match is the slot holding it (-1 if none) and free the first
// empty slot (-1 if none; the window is full). Callers hold the shard mutex,
// so no slot is mid-write. The scan stops at the first empty slot: an entry
// is always written to the first empty slot of its window (or over a victim
// in a full one) and slots never empty out again, so no entry lies beyond
// it. Like a lock-free probe it loads a slot's lo only when its hi decides
// nothing alone.
func (t *dedupTable) window(lo, hi uint64) (match, free int) {
	for i := uint64(0); i < t.span; i++ {
		idx := int((lo + i) & t.mask)
		s := &t.slots[idx]
		switch shi := s.hi.Load(); {
		case shi == hi && s.lo.Load() == lo:
			return idx, -1
		case shi == 0 && s.lo.Load() == 0:
			return -1, idx
		}
	}
	return -1, -1
}

// oldest is the slot of the oldest stamp in the full window homed at lo of
// a ceiling table: the entry an insert there overwrites.
func (t *dedupTable) oldest(lo uint64) int {
	victim, stamp := -1, ^uint64(0)
	for i := uint64(0); i < t.span; i++ {
		if idx := int((lo + i) & t.mask); t.stamps[idx] < stamp {
			victim, stamp = idx, t.stamps[idx]
		}
	}
	return victim
}

// put writes {lo, hi} to slot idx of t, hi last, and stamps it from the
// shard's clock if t is a ceiling table. Called under the shard mutex.
func (sh *dedupShard) put(t *dedupTable, idx int, lo, hi uint64) {
	s := &t.slots[idx]
	s.lo.Store(lo)
	s.hi.Store(hi)
	if t.atCeiling {
		sh.clock++
		t.stamps[idx] = sh.clock
	}
}

// grow replaces t, the shard's current table, with a rehashed copy twice its
// size — or larger, should a window of the doubled table overflow — and
// publishes it. Called under the shard mutex, with t below the ceiling.
func (sh *dedupShard) grow(t *dedupTable) *dedupTable {
	for n := 2 * len(t.slots); ; n *= 2 {
		next := newDedupTable(n, sh.ceiling)
		if sh.rehash(next, t) {
			sh.table.Store(next)
			return next
		}
	}
}

// rehash copies old's entries into the unpublished table next, in slot
// order. An entry whose window in next is full makes it report false, unless
// next is a ceiling table: there each copy is stamped as it lands, so the
// entry is the newest of its window, and the window's oldest is dropped in
// its place and counted as an eviction, as an insert at the ceiling would.
func (sh *dedupShard) rehash(next, old *dedupTable) bool {
	for i := range old.slots {
		s := &old.slots[i]
		lo, hi := s.lo.Load(), s.hi.Load()
		if lo|hi == 0 {
			continue
		}
		_, free := next.window(lo, hi)
		if free < 0 {
			if !next.atCeiling {
				return false
			}
			sh.evicted.Add(1)
			sh.occ.Add(-1)
			free = next.oldest(lo)
		}
		sh.put(next, free, lo, hi)
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
	// 16 B below its shard's ceiling and 24 B, with its LRU stamp, in a
	// ceiling table, resident or not) and the resident states.
	Shards   int
	Capacity int
	Slots    int
	Occupied int
}

// String renders the store counters compactly; slots is the live table
// size, so slots × 16 B / occupied is what each resident state costs in a
// store below its ceiling (24 B a slot once a shard reaches it).
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
// tuning DedupMem). Probes are counted per store, not per
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
