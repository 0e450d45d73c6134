// Parallel exhaustive exploration: the decision-sequence DFS sharded across
// the engine core's worker pool. Runs are deterministic replays of decision
// prefixes, so the tree parallelizes cleanly — a breadth-first pass splits
// it into disjoint prefix subtrees, each worker exhausts the subtrees it
// claims independently, and the only shared mutable state is the subtree
// counter and the MaxRuns ticket counter.

package explore

import (
	"context"
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

// ExploreParallel is ExploreContext under no context: the decision tree of
// newSession's harness sharded across cfg.Workers workers.
func ExploreParallel(newSession func() Session, cfg Config) (Stats, error) {
	return ExploreContext(context.Background(), newSession, cfg)
}

// buildFrontier expands the decision tree breadth-first on the probe walker
// w until at least target unexpanded nodes are pending (or the tree, or the
// probe cap, runs out), and reports whether the run budget or a halt cut it
// short. Complete runs shallower than the frontier are counted and checked
// here; each expanded internal node costs one probe replay that is NOT
// counted as a run (its leftmost leaf is revisited by the worker that takes
// the corresponding subtree), keeping Stats.Runs identical to the sequential
// explorer's. The probe runs WITHOUT the visited store: its replays traverse
// nodes whose subtrees are handed to workers wholesale, and fingerprinting
// them here would claim ownership of states the probe never expands (see
// dedup.go).
func buildFrontier(w *walker, target int) ([][]int, bool, error) {
	l, adv := w.lane, w.adv
	queue := [][]int{nil}
	for expansions := 0; len(queue) > 0 && len(queue) < target && expansions < frontierMaxNodes; expansions++ {
		if l.stopped() {
			return nil, true, nil
		}
		p := queue[0]
		queue = queue[1:]
		res, err := w.replay(p, false)
		if err != nil {
			return nil, false, err
		}
		if len(adv.taken) <= len(p) {
			// The run ended consuming exactly the prefix: p is a leaf.
			if !w.budget.take() {
				return nil, true, nil
			}
			l.Count(0, len(adv.taken))
			if cerr := l.session.Check(res); cerr != nil {
				return nil, false, &PropertyError{Script: Script(adv.choices), Err: cerr}
			}
			continue
		}
		// Internal node: attribute its pruned alternatives once, enqueue its
		// children in sibling order.
		pruned := adv.prunedAt[len(p)]
		l.pruned += pruned
		l.progress.add(0, int64(pruned))
		for i := 0; i < adv.altCounts[len(p)]; i++ {
			queue = append(queue, append(append(make([]int, 0, len(p)+1), p...), i))
		}
	}
	return queue, false, nil
}
