// Parallel exhaustive exploration: the decision-sequence DFS sharded across
// a worker pool. Runs are deterministic replays of decision prefixes, so the
// tree parallelizes cleanly — a breadth-first pass splits it into disjoint
// prefix subtrees, each worker exhausts its subtrees independently, and the
// only shared mutable state is the work queue and the MaxRuns ticket counter.

package explore

import (
	"context"
	"fmt"
	"sync"
	"time"
)

const (
	// frontierPerWorker is how many frontier subtrees the breadth-first pass
	// aims to produce per worker: enough granularity that an uneven subtree
	// does not leave the pool idle.
	frontierPerWorker = 8
	// frontierMaxNodes caps the breadth-first expansion (each expansion costs
	// one probe replay) for trees that are too narrow to split further.
	frontierMaxNodes = 4096
)

// ExploreParallel enumerates the same decision tree as Explore but shards it
// across cfg.Workers workers (<= 0 selects DefaultWorkers). newSession is
// called once per worker plus once for the frontier probe; every returned
// Session must own INDEPENDENT run state, because workers replay runs
// concurrently. Without Config.Dedup the visited run count, pruned-branch
// count and exhaustion verdict are identical to the sequential explorer's;
// only the wall clock (and, on property violations, which counterexample
// surfaces first) differs. With Dedup the workers share one visited-state
// store, so cut-offs compose pool-wide and the run count is
// timing-dependent (bounded by the tree walk's; the verdict still matches).
// A checker panic in any worker is re-raised on the caller's goroutine.
func ExploreParallel(newSession func() Session, cfg Config) (Stats, error) {
	return ExploreParallelContext(context.Background(), newSession, cfg)
}

// ExploreParallelContext is ExploreParallel under a context: cancelling ctx
// halts the frontier pass and every worker at its next run boundary, and the
// exploration returns ctx's error with Stats covering the work done so far,
// Exhausted false. This is what lets a long-running driver (the exploredd
// daemon, a Ctrl-C'd CLI sweep) kill a job without waiting for its budget.
func ExploreParallelContext(ctx context.Context, newSession func() Session, cfg Config) (Stats, error) {
	if newSession == nil {
		panic("explore: ExploreParallel needs a session factory")
	}
	cfg = cfg.withDefaults()
	start := time.Now()
	budget := newRunBudget(cfg.MaxRuns)

	// The visited-state store is shared by every worker, so a state first
	// visited in one subtree cuts converged branches pool-wide. The frontier
	// probe runs WITHOUT the store: its replays traverse nodes whose subtrees
	// are handed to workers wholesale, and fingerprinting them here would
	// claim ownership of states the probe never expands (see dedup.go).
	var store *dedupStore
	probeSession := newSession()
	if err := checkSymmetry(probeSession, cfg); err != nil {
		return Stats{}, err
	}
	if cfg.Dedup {
		if probeSession.Fingerprint == nil {
			return Stats{}, ErrNoFingerprint
		}
		store = newDedupStore(cfg.DedupMem, cfg.DedupShards)
		cfg.Progress.attach(store)
		defer cfg.Progress.detach()
	}

	// Phase 1: enumerate a frontier of disjoint subtree prefixes, counting
	// (and checking) any complete runs shallower than the frontier.
	probe := &walker{cfg: cfg, session: probeSession, budget: budget, stop: ctx.Done()}
	defer probe.close()
	frontier, base, err := buildFrontier(probe, cfg.Workers*frontierPerWorker)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil || base.aborted || len(frontier) == 0 {
		return Stats{
			Runs:      base.runs,
			MaxDepth:  base.maxDepth,
			Pruned:    base.pruned,
			Exhausted: err == nil && !base.aborted,
			Elapsed:   time.Since(start),
		}, err
	}

	// Phase 2: workers drain the frontier, each exhausting whole subtrees.
	nw := cfg.Workers
	if nw > len(frontier) {
		nw = len(frontier)
	}
	sessions := make([]Session, nw)
	for i := range sessions {
		sessions[i] = newSession()
	}

	type workerOut struct {
		ws       WorkerStats
		maxDepth int
		cutAlts  int
		aborted  bool
		err      error
		panicked any
	}
	outs := make([]workerOut, nw)
	work := make(chan []int)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	// Relay ctx cancellation into the pool's halt signal; the relay exits
	// when the workers drain (watchDone) so it never leaks.
	watchDone := make(chan struct{})
	defer close(watchDone)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				halt()
			case <-watchDone:
			}
		}()
	}

	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			t0 := time.Now()
			out := &outs[k]
			out.ws.Worker = k
			defer func() {
				out.ws.Busy = time.Since(t0)
				if r := recover(); r != nil {
					out.panicked = r
					halt()
				}
			}()
			w := &walker{cfg: cfg, session: sessions[k], budget: budget, stop: stop, store: store}
			defer w.retire()
			for prefix := range work {
				st, err := w.explore(prefix)
				out.ws.Runs += st.runs
				out.ws.Pruned += st.pruned
				out.cutAlts += st.cutAlts
				if st.maxDepth > out.maxDepth {
					out.maxDepth = st.maxDepth
				}
				// A dry run budget is not worth halting the pool for: every
				// further subtree aborts on its first ticket, so draining the
				// queue is cheap and keeps the feeder unblocked.
				out.aborted = out.aborted || st.aborted
				if err != nil {
					out.err = err
					halt()
					return
				}
			}
		}(k)
	}

feed:
	for _, p := range frontier {
		select {
		case work <- p:
		case <-stop:
			break feed
		}
	}
	close(work)
	wg.Wait()

	st := base
	var firstErr error
	workers := make([]WorkerStats, 0, nw)
	for k := range outs {
		o := &outs[k]
		st.fold(subtreeStats{runs: o.ws.Runs, maxDepth: o.maxDepth, pruned: o.ws.Pruned, cutAlts: o.cutAlts, aborted: o.aborted})
		workers = append(workers, o.ws)
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
		if o.panicked != nil {
			panic(fmt.Sprintf("explore: checker panicked in worker %d: %v", k, o.panicked))
		}
	}
	if firstErr == nil {
		// A worker's violation outranks the cancellation that may have raced
		// with it; a clean halt with a cancelled ctx reports the cancellation.
		firstErr = ctx.Err()
	}
	stats := Stats{
		Runs:      st.runs,
		MaxDepth:  st.maxDepth,
		Pruned:    st.pruned,
		Exhausted: firstErr == nil && !st.aborted,
		Elapsed:   time.Since(start),
		Workers:   workers,
		Dedup:     store.snapshot(),
	}
	stats.Dedup.CutAlternatives = st.cutAlts
	return stats, firstErr
}

// buildFrontier expands the decision tree breadth-first until at least
// target unexpanded nodes are pending (or the tree, or the probe cap, runs
// out). Complete runs shallower than the frontier are counted and checked
// here; each expanded internal node costs one probe replay that is NOT
// counted as a run (its leftmost leaf is revisited by the worker that takes
// the corresponding subtree), keeping Stats.Runs identical to the sequential
// explorer's.
func buildFrontier(w *walker, target int) ([][]int, subtreeStats, error) {
	var st subtreeStats
	queue := [][]int{nil}
	expansions := 0
	for len(queue) > 0 && len(queue) < target && expansions < frontierMaxNodes {
		if w.stopped() {
			st.aborted = true
			return nil, st, nil
		}
		p := queue[0]
		queue = queue[1:]
		adv, res, err := w.replay(p, false)
		if err != nil {
			return nil, st, err
		}
		expansions++
		if len(adv.taken) <= len(p) {
			// The run ended consuming exactly the prefix: p is a leaf.
			if !w.budget.take() {
				st.aborted = true
				return nil, st, nil
			}
			st.runs++
			w.cfg.Progress.add(1, 0)
			if d := len(adv.taken); d > st.maxDepth {
				st.maxDepth = d
			}
			if cerr := w.session.Check(res); cerr != nil {
				return nil, st, &PropertyError{Script: scriptOf(adv), Err: cerr}
			}
			continue
		}
		// Internal node: attribute its pruned alternatives once, enqueue its
		// children in sibling order.
		st.pruned += adv.prunedAt[len(p)]
		w.cfg.Progress.add(0, int64(adv.prunedAt[len(p)]))
		for i := 0; i < adv.altCounts[len(p)]; i++ {
			child := append(append(make([]int, 0, len(p)+1), p...), i)
			queue = append(queue, child)
		}
	}
	return queue, st, nil
}
