package main

// Probes: fixed micro-loops that call one layer's public functions directly.
// They run in every traced run, after the passes, so each layer has a
// number that does not depend on the workload's mix.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
	"mpcn/internal/sched"
	"mpcn/internal/service"
)

// probeSink keeps probe results live so the compiler cannot drop the calls.
var probeSink uint64

// runProbes fills the probe metrics. scale divides every probe's iteration
// count (1 normally, larger under -short).
func runProbes(m metrics, scale int) error {
	direct, err := stepProbe(true, 20000/scale)
	if err != nil {
		return err
	}
	inline, err := stepProbe(false, 20000/scale)
	if err != nil {
		return err
	}
	m.set("sched.direct_step_ns", direct)
	m.set("sched.inline_step_ns", inline)
	m.set("fp.fold_ns", foldProbe(false, 1_000_000/scale))
	m.set("fp.orbit_fold_ns", foldProbe(true, 1_000_000/scale))
	for _, w := range []int{1, 2} {
		hit, miss := storeProbe(w, 200_000/scale)
		m.set(fmt.Sprintf("dedup.probe_hit_ns.w%d", w), hit)
		m.set(fmt.Sprintf("dedup.probe_miss_ns.w%d", w), miss)
	}
	m.set("dedup.new_ms", newStoreProbe(5))
	for _, s := range sample.Strategies() {
		ns, err := pickProbe(s, 1_000_000/scale)
		if err != nil {
			return err
		}
		m.set("sample.pick_ns."+s, ns)
	}
	prep, key, err := serviceProbe(20000 / scale)
	if err != nil {
		return err
	}
	m.set("service.prepare_us", prep)
	m.set("service.key_us", key)
	x, err := noBatchProbe(100_000 / scale)
	if err != nil {
		return err
	}
	m.set("explore.nobatch_x", x)
	return nil
}

func trackedSession() (spec.Spec, spec.Params, error) {
	s, err := spec.Lookup("commitadopt")
	if err != nil {
		return nil, nil, err
	}
	p, err := spec.Resolve(s, spec.Params{"n": 3})
	return s, p, err
}

// stepProbe runs commit-adopt n=3 bodies under a round-robin adversary on
// one session (direct or inline protocol) and returns ns per scheduled
// step.
func stepProbe(direct bool, runs int) (float64, error) {
	s, p, err := trackedSession()
	if err != nil {
		return 0, err
	}
	h := s.New(p)
	rt, err := sched.NewSessionWith(3, sched.SessionOptions{Direct: direct})
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	rr := sched.NewRoundRobin()
	steps := 0
	start := time.Now()
	for i := 0; i < runs; i++ {
		res, err := rt.Run(sched.Config{Adversary: rr}, h.Make())
		if err != nil {
			return 0, err
		}
		steps += res.Steps
	}
	return ratio(float64(time.Since(start)), float64(steps)), nil
}

// foldProbe folds a three-process decision-boundary state the way the
// explorer's dedup fingerprint does and returns ns per fingerprint.
func foldProbe(orbit bool, n int) float64 {
	labels := []sched.Label{sched.Intern("bench.a"), sched.Intern("bench.b"), sched.Intern("bench.c")}
	var plain sched.FP
	h := &plain
	if orbit {
		h = sched.NewOrbitFP(3, nil)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		h.Reset()
		for p := 0; p < 3; p++ {
			ln := h.Lane(sched.ProcID(p))
			ln.Label(labels[(i+p)%3])
			ln.Bool(i&1 == 0)
			ln.Int(i + p)
			ln.Word(uint64(i) * 0x9e3779b97f4a7c15)
			ln.Word(uint64(p))
		}
		probeSink += h.Sum().Lo
	}
	return ratio(float64(time.Since(start)), float64(n))
}

// storeProbe measures VisitedStore.Visit at w goroutines: n inserts of
// fresh fingerprints (misses), then four hits on each. It returns ns per
// visit as each goroutine pays it.
func storeProbe(w, n int) (hit, miss float64) {
	st := explore.NewVisitedStore(0, 0)
	fp := func(i int) sched.Fingerprint {
		return sched.Fingerprint{Hi: sched.Mix(uint64(i) + 1), Lo: sched.Mix(uint64(i) ^ 0x5bd1e995)}
	}
	run := func(rounds int) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for i := g; i < n; i += w {
						st.Visit(fp(i))
					}
				}
			}()
		}
		wg.Wait()
		return float64(time.Since(start)) * float64(w) / float64(n*rounds)
	}
	miss = run(1)
	hit = run(4)
	return hit, miss
}

// newStoreProbe times NewVisitedStore(0, 0) after the previous store became
// garbage and was collected, as a daemon job that allocates one after
// another's is released; it returns the median ms.
func newStoreProbe(reps int) float64 {
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		st := explore.NewVisitedStore(0, 0)
		st.Visit(sched.Fingerprint{Hi: uint64(i), Lo: 1})
		times = append(times, ms(time.Since(start)))
	}
	return median(times)
}

// pickProbe calls Sampler.Pick on a fixed three-process view with three run
// and three crash alternatives, resetting the sampler every 64 picks, and
// returns ns per pick.
func pickProbe(strategy string, n int) (float64, error) {
	smp, err := sample.New(strategy, 0)
	if err != nil {
		return 0, err
	}
	l := sched.Intern("bench.op")
	v := sched.View{
		Runnable: []sched.ProcID{0, 1, 2},
		Pending:  []sched.Label{l, l, l},
		Crashed:  make([]bool, 3),
		StepsOf:  make([]int, 3),
	}
	var alts []sample.Choice
	for _, crash := range []bool{false, true} {
		for id := range 3 {
			alts = append(alts, sample.Choice{Crash: crash, Proc: sched.ProcID(id), Label: l})
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if i%64 == 0 {
			smp.Reset(uint64(i), 3, 800, 1)
		}
		v.Step = i % 64
		probeSink += uint64(smp.Pick(v, alts))
	}
	return ratio(float64(time.Since(start)), float64(n)), nil
}

// serviceProbe times service.Prepare and Job.Key on one fixed request and
// returns µs per call of each.
func serviceProbe(n int) (prepare, key float64, err error) {
	req := service.Request{
		Spec:   "commitadopt",
		Params: map[string]string{"n": "3", "crashes": "1"},
		Engine: service.Engine{Prune: true, Dedup: true},
	}
	var j *service.Job
	start := time.Now()
	for i := 0; i < n; i++ {
		if j, err = service.Prepare(req); err != nil {
			return 0, 0, err
		}
	}
	prepare = ratio(float64(time.Since(start))/1e3, float64(n))
	start = time.Now()
	for i := 0; i < n; i++ {
		probeSink += uint64(len(j.Key()))
	}
	key = ratio(float64(time.Since(start))/1e3, float64(n))
	return prepare, key, nil
}

// noBatchProbe explores the first runs of the tracked cell with and without
// batched grants, twice each, and returns the NoBatch ÷ batched time.
func noBatchProbe(runs int) (float64, error) {
	s, p, err := trackedSession()
	if err != nil {
		return 0, err
	}
	var t [2]time.Duration
	for rep := 0; rep < 2; rep++ {
		for k, noBatch := range []bool{false, true} {
			cfg, err := spec.Config(s, p, explore.Config{MaxRuns: runs, NoBatch: noBatch})
			if err != nil {
				return 0, err
			}
			st, err := explore.ExploreSession(s.New(p), cfg)
			if err != nil {
				return 0, err
			}
			t[k] += st.Elapsed
		}
	}
	return ratio(float64(t[1]), float64(t[0])), nil
}
