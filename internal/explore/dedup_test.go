package explore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mpcn/internal/reg"
	"mpcn/internal/sched"
)

// --- store unit tests -------------------------------------------------------

// probeCounter counts a caller's visits and publishes them to the store in
// batches, the way the engines publish one run's probes at its boundary.
type probeCounter struct {
	st      *dedupStore
	pending int64
}

// visit probes the store and counts the probe; every 1000 probes (a "run")
// it publishes them.
func (c *probeCounter) visit(fp sched.Fingerprint) bool {
	c.pending++
	if c.pending == 1000 {
		c.publish()
	}
	return c.st.visit(fp)
}

// publish hands the unpublished probes to the store.
func (c *probeCounter) publish() {
	c.st.addLookups(c.pending)
	c.pending = 0
}

func TestDedupStoreVisit(t *testing.T) {
	st := newDedupStore(1<<20, 4)
	fp := func(i uint64) sched.Fingerprint {
		var h sched.FP
		h.Word(i)
		return h.Sum()
	}
	probes := probeCounter{st: st}
	for i := uint64(0); i < 1000; i++ {
		if probes.visit(fp(i)) {
			t.Fatalf("fresh fingerprint %d reported visited", i)
		}
	}
	for i := uint64(0); i < 1000; i++ {
		if !probes.visit(fp(i)) {
			t.Fatalf("resident fingerprint %d reported fresh", i)
		}
	}
	probes.publish()
	d := st.snapshot()
	if d.States != 1000 || d.Hits != 1000 || d.Lookups != 2000 || d.Occupied != 1000 {
		t.Fatalf("stats inconsistent: %+v", d)
	}
	if d.Evictions != 0 {
		t.Fatalf("unexpected evictions: %+v", d)
	}
	states := int64(0)
	occ := 0
	for _, sh := range st.shardStats() {
		states += sh.States
		occ += sh.Occupied
	}
	if states != d.States || occ != d.Occupied {
		t.Fatalf("per-shard stats do not add up to the aggregate")
	}

	// The memory bound is a ceiling: a default store starts with small
	// tables, and Capacity still reports the ceiling in slots.
	def := newDedupStore(0, 0)
	if b := tableBytes(def); b >= 256<<10 {
		t.Fatalf("default store allocates %d bytes of tables, want < 256 KiB", b)
	}
	if got, want := def.snapshot().Capacity*dedupEntryBytes, DefaultDedupMem; got > want || got <= want/2 {
		t.Fatalf("default capacity %d bytes, want the %d-byte ceiling", got, want)
	}

	// Evictions stay 0 until a shard has grown to its ceiling: fill a small
	// store (4 shards of at most 256 slots) one distinct fingerprint at a
	// time and check the inserting shard after every visit.
	small := newDedupStore(4*256*dedupEntryBytes, 4)
	for i := uint64(0); small.snapshot().Evictions == 0; i++ {
		if i == 4*4*256 {
			t.Fatalf("no eviction after %d distinct fingerprints: %+v", i, small.snapshot())
		}
		f := fp(1<<32 + i)
		small.visit(f)
		sh := &small.shards[f.Hi&small.mask]
		if sh.evicted.Load() > 0 && len(sh.table.Load().slots) != sh.ceiling {
			t.Fatalf("shard evicted at %d of %d slots", len(sh.table.Load().slots), sh.ceiling)
		}
	}
}

// tableBytes is the memory the store's shard tables currently occupy.
func tableBytes(st *dedupStore) int {
	n := 0
	for i := range st.shards {
		n += len(st.shards[i].table.Load().slots) * dedupEntryBytes
	}
	return n
}

// shardsGrownTo reports whether every shard's table holds at least slots.
func shardsGrownTo(st *dedupStore, slots int) bool {
	for i := range st.shards {
		if len(st.shards[i].table.Load().slots) < slots {
			return false
		}
	}
	return true
}

func TestDedupStoreEviction(t *testing.T) {
	// A store this tiny (one shard, minimum slots) must evict under load yet
	// keep answering: memory stays bounded, recently-seen states stay hot.
	// Its table is smaller than the probe window, so it probes all of itself
	// and fills every slot before it evicts.
	st := newDedupStore(1, 1)
	if cap := st.snapshot().Capacity; cap != dedupMinSlots {
		t.Fatalf("minimum capacity = %d, want %d", cap, dedupMinSlots)
	}
	if span := st.shards[0].table.Load().span; span != dedupMinSlots {
		t.Fatalf("minimum table probes %d slots, want all %d", span, dedupMinSlots)
	}
	for i := uint64(0); i < 10000; i++ {
		var h sched.FP
		h.Word(i)
		st.visit(h.Sum())
	}
	d := st.snapshot()
	if d.Evictions == 0 {
		t.Fatal("no evictions despite a full store")
	}
	if d.Occupied != d.Capacity || d.Slots != d.Capacity {
		t.Fatalf("occupancy %d of %d slots, want every one of %d", d.Occupied, d.Slots, d.Capacity)
	}

	// A rehash that overflows a window of the table it fills fails below the
	// ceiling; at the ceiling it keeps the window's newest entries and counts
	// the rest as evictions, as inserts there would. Four entries more than
	// a window, all homed at slot 0, lose their four oldest to a table of
	// two windows and all but the newest dedupMinSlots to a minimum table.
	const homed = dedupProbeWindow + 4
	for _, tc := range []struct {
		slots, kept int
	}{
		{2 * dedupProbeWindow, dedupProbeWindow},
		{dedupMinSlots, dedupMinSlots},
	} {
		sh := &newDedupStore(1, 1).shards[0]
		old := newDedupTable(2*dedupProbeWindow, 2*dedupProbeWindow)
		for i := 0; i < homed; i++ {
			old.put(i, 0, uint64(i), uint64(i+1)) // stamps 1..homed
			sh.occ.Add(1)
		}
		if sh.rehash(newDedupTable(tc.slots, tc.slots+1), old, false) {
			t.Fatalf("overflowing rehash into %d slots below the ceiling succeeded", tc.slots)
		}
		next := newDedupTable(tc.slots, tc.slots)
		if !sh.rehash(next, old, true) {
			t.Fatalf("rehash into %d slots at the ceiling failed", tc.slots)
		}
		dropped := int64(homed - tc.kept)
		if sh.evicted.Load() != dropped || sh.occ.Load() != int64(tc.kept) {
			t.Fatalf("rehash into %d slots evicted %d, occupancy %d; want %d and %d",
				tc.slots, sh.evicted.Load(), sh.occ.Load(), dropped, tc.kept)
		}
		for i := 0; i < tc.kept; i++ {
			if s := next.slots[i].stamp.Load(); s <= uint64(dropped) {
				t.Fatalf("rehash into %d slots: slot %d kept stamp %d, one of the %d oldest", tc.slots, i, s, dropped)
			}
		}
	}
}

// TestDedupStoreGrowthLoad: a grown store spends few slots per resident
// state. 140,000 distinct, well-mixed fingerprints — about the branching
// states of the commitadopt n=4 dedup walk — fit a default store in at most
// 300,000 slots, a load of at least 0.46. A 16-slot probe window overflowed
// at 25–55% load and doubled its table, which took this set to 430,080
// slots.
func TestDedupStoreGrowthLoad(t *testing.T) {
	const states, maxSlots = 140000, 300000
	st := newDedupStore(0, 0)
	for i := uint64(0); i < states; i++ {
		var h sched.FP
		h.Word(i)
		if st.visit(h.Sum()) {
			t.Fatalf("fresh fingerprint %d reported visited", i)
		}
	}
	d := st.snapshot()
	if d.States != states || d.Occupied != states || d.Evictions != 0 {
		t.Fatalf("store contents wrong: %+v", d)
	}
	if d.Slots != tableBytes(st)/dedupEntryBytes {
		t.Fatalf("Slots = %d, tables hold %d", d.Slots, tableBytes(st)/dedupEntryBytes)
	}
	slots := 0
	for _, sh := range st.shardStats() {
		slots += sh.Slots
	}
	if slots != d.Slots {
		t.Fatalf("shard slots add up to %d, store reports %d", slots, d.Slots)
	}
	if d.Slots > maxSlots {
		t.Fatalf("%d states hold %d slots (load %.2f), want at most %d", states, d.Slots,
			float64(states)/float64(d.Slots), maxSlots)
	}
	t.Logf("%d states in %d slots: load %.2f, %.1f B per state", states, d.Slots,
		float64(states)/float64(d.Slots), float64(d.Slots*dedupEntryBytes)/states)
}

// TestDedupDefaultCeiling pins the default store's ceiling: 64 shards whose
// 1 MiB shares round down to 32,768 slots of 24 B, so 2,097,152 slots and
// 48 MiB in all, short of DefaultDedupMem.
func TestDedupDefaultCeiling(t *testing.T) {
	d := newDedupStore(0, 0).snapshot()
	if d.Shards != DefaultDedupShards || d.Capacity != 2097152 || d.Capacity*dedupEntryBytes != 48<<20 {
		t.Fatalf("default store: %d shards, %d slots (%d bytes); want %d, 2097152 (48 MiB)",
			d.Shards, d.Capacity, d.Capacity*dedupEntryBytes, DefaultDedupShards)
	}
}

// BenchmarkDedupVisitAtCeiling times the evicting insert: a 1 MiB store
// (64 shards of 512 slots) is filled to its ceiling, and then every visit
// is a fresh fingerprint that scans a full probe window, under its shard's
// mutex, for the oldest entry to overwrite.
func BenchmarkDedupVisitAtCeiling(b *testing.B) {
	fps := make([]sched.Fingerprint, 1<<20)
	for i := range fps {
		var h sched.FP
		h.Word(uint64(i))
		fps[i] = h.Sum()
	}
	st := newDedupStore(1<<20, 0)
	i := 0
	for ; !shardsGrownTo(st, st.shards[0].ceiling); i++ {
		st.visit(fps[i])
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		st.visit(fps[(i+n)%len(fps)])
	}
}

// TestDedupStoreExactlyOneInserter: the store's core guarantee under the
// lock-free read path — for every resident fingerprint, exactly one
// concurrent visitor is told "not visited" — while racing workers double
// every shard's table several times. A second store is small enough that the
// shards then reach their ceiling and evict: an evicted fingerprint may be
// inserted again, so there every fingerprint is inserted at least once and
// the inserts add up to States.
func TestDedupStoreExactlyOneInserter(t *testing.T) {
	const workers = 8
	for _, tc := range []struct {
		name  string
		st    *dedupStore
		fps   int
		evict bool
	}{
		{"grow", newDedupStore(4<<20, 4), 2000, false},
		{"grow-then-evict", newDedupStore(4*1024*dedupEntryBytes, 4), 8000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, fps := tc.st, tc.fps
			fresh := make([]atomic.Int64, fps)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					probes := probeCounter{st: st}
					defer probes.publish()
					for i := 0; i < fps; i++ {
						// Each worker walks the fingerprints in a different order so
						// first-visit races land on different fps across workers.
						j := (i*(2*seed+1) + seed) % fps
						var h sched.FP
						h.Word(uint64(j))
						if !probes.visit(h.Sum()) {
							fresh[j].Add(1)
						}
					}
				}(w)
			}
			wg.Wait()
			inserted := int64(0)
			for i := range fresh {
				got := fresh[i].Load()
				if got < 1 || (!tc.evict && got != 1) {
					t.Fatalf("fingerprint %d inserted %d times", i, got)
				}
				inserted += got
			}
			d := st.snapshot()
			if d.Lookups != int64(workers*fps) || d.Hits+d.States != d.Lookups || inserted != d.States {
				t.Fatalf("counter accounting broken (%d inserts seen): %+v", inserted, d)
			}
			if int64(d.Occupied) != d.States-d.Evictions || d.Occupied > d.Capacity {
				t.Fatalf("occupancy does not reconcile: %+v", d)
			}
			if !shardsGrownTo(st, 8*dedupInitialSlots) {
				t.Fatalf("shards did not double three times: %d table bytes", tableBytes(st))
			}
			if !tc.evict && (d.States != int64(fps) || d.Occupied != fps || d.Evictions != 0) {
				t.Fatalf("store contents wrong: %+v", d)
			}
			if tc.evict && (d.Evictions == 0 || tableBytes(st) != d.Capacity*dedupEntryBytes) {
				t.Fatalf("shards did not reach their ceiling and evict: %+v", d)
			}
		})
	}
}

// TestDedupStoreConcurrentHammer drives concurrent lock-free probes against
// concurrent evicting writes and table growth: a minimum-size store (every
// insert beyond the first window evicts), and a store whose shards double
// four times before they evict, each shared by many goroutines revisiting a
// hot working set. The race detector checks the seqlock discipline and the
// table publication; the assertions check that the counters stay exact —
// every visit the workers publish is a lookup and exactly one hit or insert,
// evictions and occupancy reconcile — no matter how reads, writes and
// rehashes interleave.
func TestDedupStoreConcurrentHammer(t *testing.T) {
	const workers = 8
	const visitsPerWorker = 30000
	for _, tc := range []struct {
		name     string
		st       *dedupStore
		keyspace uint64
	}{
		{"minimum", newDedupStore(1, 1), 64}, // 4x a 16-slot store: constant eviction pressure
		{"grow-then-evict", newDedupStore(2*1024*dedupEntryBytes, 2), 8192},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.st
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					probes := probeCounter{st: st}
					defer probes.publish()
					x := seed*0x9e3779b97f4a7c15 + 1
					for i := 0; i < visitsPerWorker; i++ {
						// xorshift keeps the mix of hot revisits and fresh inserts
						// deterministic per worker without a shared rand.
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
						var h sched.FP
						h.Word(x % tc.keyspace)
						probes.visit(h.Sum())
					}
				}(uint64(w))
			}
			wg.Wait()
			d := st.snapshot()
			if d.Lookups != workers*visitsPerWorker {
				t.Fatalf("lookups %d, want %d", d.Lookups, workers*visitsPerWorker)
			}
			if d.Hits+d.States != d.Lookups {
				t.Fatalf("hits %d + inserts %d != lookups %d", d.Hits, d.States, d.Lookups)
			}
			if d.Evictions == 0 {
				t.Fatalf("expected eviction pressure: %+v", d)
			}
			if int64(d.Occupied) != d.States-d.Evictions {
				t.Fatalf("occupancy %d does not reconcile with inserts %d - evictions %d",
					d.Occupied, d.States, d.Evictions)
			}
			if d.Occupied > d.Capacity {
				t.Fatalf("occupancy %d exceeds capacity %d", d.Occupied, d.Capacity)
			}
			if tableBytes(st) != d.Capacity*dedupEntryBytes {
				t.Fatalf("shards evicted below their ceiling: %d table bytes, capacity %d slots",
					tableBytes(st), d.Capacity)
			}
		})
	}
}

// TestDedupEvictionStatsExact: the per-shard counters under the lock-free
// read path remain exact, not approximate: on a single-shard store the
// eviction, insert and occupancy counters reconcile slot for slot, and the
// per-shard surface sums to the aggregate.
func TestDedupEvictionStatsExact(t *testing.T) {
	st := newDedupStore(1, 1) // one shard, 16 slots
	probes := probeCounter{st: st}
	visit := func(i uint64) bool {
		var h sched.FP
		h.Word(i)
		return probes.visit(h.Sum())
	}
	// Fill distinct fingerprints well past capacity, then revisit a recent
	// window; every probe outcome is deterministic sequentially.
	const distinct = 200
	for i := uint64(0); i < distinct; i++ {
		if visit(i) {
			t.Fatalf("fresh fingerprint %d reported visited", i)
		}
	}
	probes.publish()
	d := st.snapshot()
	if d.States != distinct || d.Hits != 0 || d.Lookups != distinct {
		t.Fatalf("after fill: %+v", d)
	}
	if int64(d.Occupied) != d.States-d.Evictions {
		t.Fatalf("occupancy %d != inserts %d - evictions %d", d.Occupied, d.States, d.Evictions)
	}
	if d.Evictions != distinct-int64(d.Occupied) {
		t.Fatalf("evictions %d do not account for the %d non-resident inserts",
			d.Evictions, distinct-int64(d.Occupied))
	}
	// Revisiting an evicted fingerprint re-inserts (counted again); revisiting
	// a resident one hits. Either way the accounting identity holds.
	for i := uint64(0); i < distinct; i++ {
		visit(i)
	}
	probes.publish()
	d = st.snapshot()
	if d.Lookups != 2*distinct || d.Hits+d.States != d.Lookups {
		t.Fatalf("after revisit: %+v", d)
	}
	if int64(d.Occupied) != d.States-d.Evictions {
		t.Fatalf("after revisit: occupancy %d != inserts %d - evictions %d",
			d.Occupied, d.States, d.Evictions)
	}
	shards := st.shardStats()
	if len(shards) != 1 {
		t.Fatalf("want 1 shard, got %d", len(shards))
	}
	sh := shards[0]
	if sh.States != d.States || sh.Evictions != d.Evictions || sh.Occupied != d.Occupied {
		t.Fatalf("per-shard stats %+v diverge from aggregate %+v", sh, d)
	}
}

// --- exploration harnesses --------------------------------------------------

// rmwSession is the read-modify-write convergence workload: n processes each
// read the shared register and write back read+1 (a non-atomic increment).
// Many interleavings converge on identical states — e.g. every order of the
// initial reads — so it exercises dedup where partial-order reduction cannot
// help (all operations conflict on the same register). The per-process read
// values are the checker-visible log, folded positionally into the
// fingerprint. faulty, when non-nil, turns the session into a seeded
// violation: Check errors on the schedules faulty matches.
func rmwSession(n int, faulty func(reads []int) error) func() Session {
	return func() Session {
		reads := make([]int, n)
		var r *reg.Register[int]
		return Session{
			Make: func() []sched.Proc {
				r = reg.New[int]("shared")
				bodies := make([]sched.Proc, n)
				for i := range bodies {
					i := i
					reads[i] = -1
					bodies[i] = func(e *sched.Env) {
						v := r.Read(e)
						reads[i] = v
						r.Write(e, v+1)
						e.Decide(v)
					}
				}
				return bodies
			},
			Check: func(res *sched.Result) error {
				if faulty != nil {
					return faulty(reads)
				}
				return nil
			},
			Fingerprint: func(h *sched.FP) {
				r.Fingerprint(h)
				for _, v := range reads {
					h.Int(v)
				}
			},
		}
	}
}

// outcomeCollector wraps a session factory so every checked run records its
// reads-vector; the resulting set is the observable final-state coverage.
func rmwCoverage(n int, cover map[string]bool) func() Session {
	base := rmwSession(n, nil)
	return func() Session {
		s := base()
		inner := s.Check
		return Session{
			Make: s.Make,
			Check: func(res *sched.Result) error {
				if err := inner(res); err != nil {
					return err
				}
				// Each process decides its read value, so the Result alone
				// identifies the checker-observable final state.
				var sb strings.Builder
				for _, o := range res.Outcomes {
					fmt.Fprintf(&sb, "%v/%v;", o.Decided, o.Value)
				}
				cover[sb.String()] = true
				return nil
			},
			Fingerprint: s.Fingerprint,
		}
	}
}

// --- dedup behavior ---------------------------------------------------------

// TestDedupReduction: dedup must cut the visited-run count of converging
// workloads by at least 2x (the acceptance floor; the RMW diamond and
// commit-adopt both far exceed it) with the exhaustion verdict intact.
func TestDedupReduction(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Session
		cfg  Config
	}{
		{"rmw/n=3", rmwSession(3, nil), Config{}},
		{"rmw/n=3/crashes=1", rmwSession(3, nil), Config{MaxCrashes: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off, err := ExploreSession(tc.mk(), tc.cfg)
			if err != nil || !off.Exhausted {
				t.Fatalf("baseline: %v (exhausted=%v)", err, off.Exhausted)
			}
			cfgOn := tc.cfg
			cfgOn.Dedup = true
			on, err := ExploreSession(tc.mk(), cfgOn)
			if err != nil || !on.Exhausted {
				t.Fatalf("dedup: %v (exhausted=%v)", err, on.Exhausted)
			}
			if on.Runs*2 > off.Runs {
				t.Fatalf("reduction below 2x: %d runs with dedup vs %d without", on.Runs, off.Runs)
			}
			if on.Dedup.Hits == 0 || on.Dedup.States == 0 || on.Dedup.CutAlternatives == 0 {
				t.Fatalf("dedup stats empty: %+v", on.Dedup)
			}
			if on.Dedup.Lookups != on.Dedup.Hits+on.Dedup.States {
				t.Fatalf("lookup accounting broken: %+v", on.Dedup)
			}
			t.Logf("%s: %d -> %d runs (%.1fx), %s", tc.name, off.Runs, on.Runs,
				float64(off.Runs)/float64(on.Runs), on.Dedup)
		})
	}
}

// TestDedupDeterministic: the sequential dedup explorer is a deterministic
// function of the session and config.
func TestDedupDeterministic(t *testing.T) {
	run := func() Stats {
		st, err := ExploreSession(rmwSession(3, nil)(), Config{Dedup: true, MaxCrashes: 1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Runs != b.Runs || a.Dedup.Hits != b.Dedup.Hits || a.Dedup.States != b.Dedup.States {
		t.Fatalf("sequential dedup not deterministic: %+v vs %+v", a.Dedup, b.Dedup)
	}
}

// TestDedupStateCoverage: cutting converged subtrees must not lose reachable
// final states. The set of checker-observable outcomes must be identical
// across plain, dedup, prune, prune+dedup and rendezvous+dedup exploration.
func TestDedupStateCoverage(t *testing.T) {
	coverage := func(cfg Config) map[string]bool {
		cover := make(map[string]bool)
		st, err := ExploreSession(rmwCoverage(3, cover)(), cfg)
		if err != nil || !st.Exhausted {
			t.Fatalf("cfg %+v: %v (exhausted=%v)", cfg, err, st.Exhausted)
		}
		return cover
	}
	want := coverage(Config{MaxCrashes: 1})
	if len(want) < 3 {
		t.Fatalf("workload too shallow: only %d outcomes", len(want))
	}
	for _, cfg := range []Config{
		{MaxCrashes: 1, Dedup: true},
		{MaxCrashes: 1, Prune: true},
		{MaxCrashes: 1, Prune: true, Dedup: true},
		Rendezvous(Config{MaxCrashes: 1, Dedup: true}),
	} {
		got := coverage(cfg)
		if len(got) != len(want) {
			t.Fatalf("cfg %+v: %d outcomes, want %d", cfg, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("cfg %+v lost outcome %s", cfg, k)
			}
		}
	}
}

// TestDedupIdenticalCounterexample: on a violating workload, dedup-on and
// dedup-off must surface the SAME first counterexample, byte for byte — cuts
// only remove subtrees whose behaviors were already checked earlier in DFS
// order. Verified with and without partial-order reduction.
func TestDedupIdenticalCounterexample(t *testing.T) {
	lostUpdate := func(reads []int) error {
		// Both processes read 0: the increment is lost.
		if reads[0] == 0 && reads[1] == 0 {
			return errors.New("lost update")
		}
		return nil
	}
	for _, prune := range []bool{false, true} {
		script := func(dedup bool) string {
			_, err := ExploreSession(rmwSession(2, lostUpdate)(), Config{Prune: prune, Dedup: dedup})
			var pe *PropertyError
			if !errors.As(err, &pe) {
				t.Fatalf("prune=%v dedup=%v: expected a PropertyError, got %v", prune, dedup, err)
			}
			return strings.Join(pe.Script, "\n") + "\n#" + pe.Err.Error()
		}
		off, on := script(false), script(true)
		if off != on {
			t.Fatalf("prune=%v: counterexample diverged under dedup:\n--- off:\n%s\n--- on:\n%s", prune, off, on)
		}
	}
}

// TestNoBatchIdenticalCounterexample: disabling the batching transport must
// not move the first counterexample by a byte — the violating schedule, its
// script rendering and the checker error are identical, under every
// reduction combination.
func TestNoBatchIdenticalCounterexample(t *testing.T) {
	lostUpdate := func(reads []int) error {
		if reads[0] == 0 && reads[1] == 0 {
			return errors.New("lost update")
		}
		return nil
	}
	for _, cfg := range []Config{
		{},
		{Prune: true},
		{Dedup: true},
		{Prune: true, Dedup: true},
		{MaxCrashes: 1},
	} {
		script := func(noBatch bool) string {
			c := cfg
			c.NoBatch = noBatch
			_, err := ExploreSession(rmwSession(2, lostUpdate)(), c)
			var pe *PropertyError
			if !errors.As(err, &pe) {
				t.Fatalf("cfg %+v nobatch=%v: expected a PropertyError, got %v", cfg, noBatch, err)
			}
			return strings.Join(pe.Script, "\n") + "\n#" + pe.Err.Error()
		}
		batched, unbatched := script(false), script(true)
		if batched != unbatched {
			t.Fatalf("cfg %+v: counterexample diverged under batching:\n--- batched:\n%s\n--- unbatched:\n%s",
				cfg, batched, unbatched)
		}
	}
}

// TestDedupEvictionSound: a store squeezed to its minimum capacity evicts
// constantly, yet exploration stays exhaustive and the final-state coverage
// is unchanged — evictions cost reduction, never soundness.
func TestDedupEvictionSound(t *testing.T) {
	want := make(map[string]bool)
	if _, err := ExploreSession(rmwCoverage(3, want)(), Config{MaxCrashes: 1}); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	st, err := ExploreSession(rmwCoverage(3, got)(), Config{
		MaxCrashes: 1, Dedup: true, DedupMem: 1, DedupShards: 1, // 16 slots total
	})
	if err != nil || !st.Exhausted {
		t.Fatalf("%v (exhausted=%v)", err, st.Exhausted)
	}
	if st.Dedup.Evictions == 0 {
		t.Fatalf("expected evictions from a 16-slot store: %+v", st.Dedup)
	}
	if len(got) != len(want) {
		t.Fatalf("coverage changed under eviction: %d vs %d outcomes", len(got), len(want))
	}
}

// TestDedupParallelSharedStore: the workers of a parallel exploration share
// one store; cut-offs compose across subtrees. Run counts are timing-
// dependent but bounded by the tree walk, and the verdict must match.
func TestDedupParallelSharedStore(t *testing.T) {
	newSession := rmwSession(3, nil)
	off, err := ExploreParallel(newSession, Config{MaxCrashes: 1, Workers: 4})
	if err != nil || !off.Exhausted {
		t.Fatalf("baseline: %v", err)
	}
	on, err := ExploreParallel(newSession, Config{MaxCrashes: 1, Workers: 4, Dedup: true})
	if err != nil || !on.Exhausted {
		t.Fatalf("dedup: %v (exhausted=%v)", err, on.Exhausted)
	}
	if on.Runs > off.Runs {
		t.Fatalf("parallel dedup explored more runs (%d) than the tree walk (%d)", on.Runs, off.Runs)
	}
	if on.Dedup.Hits == 0 {
		t.Fatalf("no cuts recorded: %+v", on.Dedup)
	}
}

// TestDedupParallelFindsViolation: a seeded violation must still surface
// under parallel dedup (some counterexample; which one is timing-dependent).
func TestDedupParallelFindsViolation(t *testing.T) {
	lost := func(reads []int) error {
		if reads[0] == 0 && reads[1] == 0 {
			return errors.New("lost update")
		}
		return nil
	}
	_, err := ExploreParallel(rmwSession(2, lost), Config{Workers: 4, Dedup: true})
	var pe *PropertyError
	if !errors.As(err, &pe) {
		t.Fatalf("expected a PropertyError, got %v", err)
	}
}

// TestDedupRequiresFingerprint: Dedup without a Session.Fingerprint must be
// rejected by both engines.
func TestDedupRequiresFingerprint(t *testing.T) {
	bare := func() Session {
		s := rmwSession(2, nil)()
		s.Fingerprint = nil
		return s
	}
	if _, err := ExploreSession(bare(), Config{Dedup: true}); !errors.Is(err, ErrNoFingerprint) {
		t.Fatalf("sequential: got %v, want ErrNoFingerprint", err)
	}
	if _, err := ExploreParallel(bare, Config{Dedup: true}); !errors.Is(err, ErrNoFingerprint) {
		t.Fatalf("parallel: got %v, want ErrNoFingerprint", err)
	}
}

// TestDedupRendezvousMatchesSession: the rendezvous reference walk and the
// batched direct-protocol walk cut identical dedup trees (the store
// interaction is a function of the decision sequence, not the runtime).
func TestDedupRendezvousMatchesSession(t *testing.T) {
	run := func(cfg Config) Stats {
		st, err := ExploreSession(rmwSession(3, nil)(), cfg)
		if err != nil || !st.Exhausted {
			t.Fatalf("%+v: %v", cfg, err)
		}
		return st
	}
	cfg := Config{MaxCrashes: 1, Dedup: true}
	d, r := run(cfg), run(Rendezvous(cfg))
	if d.Runs != r.Runs || d.Dedup.Hits != r.Dedup.Hits || d.Dedup.States != r.Dedup.States ||
		d.Dedup.CutAlternatives != r.Dedup.CutAlternatives {
		t.Fatalf("direct/rendezvous dedup divergence: %+v vs %+v", d.Dedup, r.Dedup)
	}
}

// TestDedupPruneComposition: with both reductions on, the explorer still
// exhausts, cuts strictly more than prune alone, and — because the
// fingerprint folds the partial-order context — stays deterministic.
func TestDedupPruneComposition(t *testing.T) {
	base := Config{MaxCrashes: 1, Prune: true}
	pruneOnly, err := ExploreSession(rmwSession(3, nil)(), base)
	if err != nil || !pruneOnly.Exhausted {
		t.Fatalf("prune: %v", err)
	}
	both := base
	both.Dedup = true
	onA, err := ExploreSession(rmwSession(3, nil)(), both)
	if err != nil || !onA.Exhausted {
		t.Fatalf("prune+dedup: %v", err)
	}
	onB, err := ExploreSession(rmwSession(3, nil)(), both)
	if err != nil {
		t.Fatal(err)
	}
	if onA.Runs != onB.Runs || onA.Pruned != onB.Pruned || onA.Dedup.Hits != onB.Dedup.Hits {
		t.Fatal("prune+dedup not deterministic")
	}
	if onA.Runs >= pruneOnly.Runs {
		t.Fatalf("dedup on top of prune did not reduce: %d vs %d", onA.Runs, pruneOnly.Runs)
	}
	t.Logf("plain prune: %d runs; prune+dedup: %d runs", pruneOnly.Runs, onA.Runs)
}

// TestDedupShardStatsSurface sanity-checks the diagnostic shard surface.
func TestDedupShardStatsSurface(t *testing.T) {
	st := newDedupStore(1<<16, 8)
	for i := uint64(0); i < 100; i++ {
		var h sched.FP
		h.Word(i)
		st.visit(h.Sum())
	}
	shards := st.shardStats()
	if len(shards) != 8 {
		t.Fatalf("want 8 shards, got %d", len(shards))
	}
	idx := make([]int, 0, len(shards))
	for _, s := range shards {
		idx = append(idx, s.Shard)
	}
	if !sort.IntsAreSorted(idx) {
		t.Fatal("shard stats out of order")
	}
}
