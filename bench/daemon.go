package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"mpcn/internal/explore"
	"mpcn/internal/service"
)

// daemonBench is the daemon workload: two closed-loop clients drive a fresh
// service.Server per pass over loopback HTTP. Each pass is a seeded stream
// in which four jobs are fresh computations and every other job resubmits a
// uniformly chosen earlier job, answered from the cache or by joining its
// flight. A fresh server per pass bounds memory: every computed job keeps
// its visited store alive for the server's lifetime.
type daemonBench struct {
	seed    int64
	workers int
	jobs    int // per pass
	samples int // per sampling job

	// The exhaustive jobs a stream draws from, split by whether the job
	// allocates a visited store, so every pass computes the same mix.
	pruneOnly, withStore []service.Request
	ref                  map[string]int // job key → runs of a direct ExploreSession call

	// Untraced passes.
	jobLat, hitLat []float64 // ms, computed and cached-or-joined jobs
	submit         []float64 // ms, POST /jobs round trips
	engine, over   []float64 // ms, computed jobs: engine time and the rest
	done           int
	secs           float64
	// Traced passes.
	handler handlerTimes
	// All recorded passes, from GET /stats.
	cache service.CacheStats
	pool  service.PoolStats
}

// daemonCells are small cells every variant exhausts in milliseconds.
var daemonCells = []service.Request{
	{Spec: "commitadopt", Params: map[string]string{"n": "2"}},
	{Spec: "safe"},
	{Spec: "queue", Params: map[string]string{"n": "2"}},
	{Spec: "registers", Params: map[string]string{"n": "2"}},
	{Spec: "commitadopt", Params: map[string]string{"n": "2", "crashes": "1"}},
	{Spec: "safe", Params: map[string]string{"crashes": "1"}},
	{Spec: "xsafe", Params: map[string]string{"n": "2", "x": "2"}},
	{Spec: "testandset"},
	{Spec: "mlset"},
	{Spec: "renaming"},
	{Spec: "universal"},
	{Spec: "xcompete"},
}

// Sampling jobs draw a fresh seed over these specs and strategies.
var (
	daemonSampleSpecs = []string{"commitadopt", "safe", "queue"}
	daemonSampleKinds = []string{"walk", "pct", "swarm"}
)

// newDaemonBench builds the job menu and, for every exhaustive job, the run
// count a direct sequential exploration of the same cell visits.
func newDaemonBench(seed int64, workers int, short bool) (*daemonBench, error) {
	b := &daemonBench{seed: seed, workers: workers, jobs: 200, samples: 1000, ref: map[string]int{}}
	cells := daemonCells
	if short {
		b.jobs, b.samples, cells = 40, 200, daemonCells[:4]
	}
	for _, c := range cells {
		for _, e := range []service.Engine{{Prune: true}, {Dedup: true}, {Prune: true, Dedup: true}} {
			e.Workers = 1 // sequential: run counts are deterministic
			req := c
			req.Engine = e
			j, err := service.Prepare(req)
			if err != nil {
				return nil, fmt.Errorf("daemon menu %s: %w", c.Spec, err)
			}
			cfg, err := j.ExploreConfig()
			if err != nil {
				return nil, err
			}
			// A sequential walk's run count does not depend on the store's
			// size while nothing is evicted, and a small store keeps set-up
			// from timing 64 MiB allocations.
			cfg.DedupMem = 1 << 20
			st, err := explore.ExploreSession(j.Spec.New(j.Params), cfg)
			if err != nil || !st.Exhausted || st.Dedup.Evictions != 0 {
				return nil, fmt.Errorf("daemon reference %s %v: exhausted=%v evictions=%d err=%v", c.Spec, e, st.Exhausted, st.Dedup.Evictions, err)
			}
			if e.Dedup {
				b.withStore = append(b.withStore, req)
			} else {
				b.pruneOnly = append(b.pruneOnly, req)
			}
			b.ref[j.Key()] = st.Runs
		}
	}
	return b, nil
}

// stream draws pass i's jobs from (seed, i). Job 0 and three other
// positions are fresh computations: a prune-only and a dedup exhaustive job
// from the menu and two sampling jobs with fresh seeds, in a random order.
// Every other job repeats a uniformly chosen earlier one.
func (b *daemonBench) stream(i int) []service.Request {
	rng := rand.New(rand.NewPCG(uint64(b.seed), uint64(i)))
	fresh := []service.Request{
		b.pruneOnly[rng.IntN(len(b.pruneOnly))],
		b.withStore[rng.IntN(len(b.withStore))],
		b.sampling(daemonSampleSpecs[rng.IntN(len(daemonSampleSpecs))], daemonSampleKinds[rng.IntN(len(daemonSampleKinds))], rng.Int64N(1<<40)+1),
		b.sampling(daemonSampleSpecs[rng.IntN(len(daemonSampleSpecs))], daemonSampleKinds[rng.IntN(len(daemonSampleKinds))], rng.Int64N(1<<40)+1),
	}
	rng.Shuffle(len(fresh), func(x, y int) { fresh[x], fresh[y] = fresh[y], fresh[x] })
	at := make([]bool, b.jobs)
	at[0] = true
	for _, p := range rng.Perm(b.jobs - 1)[:len(fresh)-1] {
		at[p+1] = true
	}
	out := make([]service.Request, b.jobs)
	n := 0
	for j := range out {
		if at[j] {
			out[j] = fresh[n]
			n++
		} else {
			out[j] = out[rng.IntN(j)]
		}
	}
	return out
}

func (b *daemonBench) sampling(specName, strategy string, seed int64) service.Request {
	return service.Request{
		Spec:   specName,
		Engine: service.Engine{Mode: service.ModeSample, Strategy: strategy, Samples: b.samples, Workers: b.workers},
		Seed:   seed,
	}
}

// jobRecord is what one client saw of one job.
type jobRecord struct {
	key     string
	cached  bool
	result  json.RawMessage
	lat     time.Duration
	submit  time.Duration
	failure string
}

// daemonRun is one server on loopback for the duration of a pass.
type daemonRun struct {
	srv *service.Server
	ts  *httptest.Server
}

func (b *daemonBench) start(tr *tracer) daemonRun {
	srv := service.NewServer(service.ServerConfig{})
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.middleware(h, &b.handler)
	}
	return daemonRun{srv: srv, ts: httptest.NewServer(h)}
}

func (d daemonRun) stop() {
	d.ts.Close()
	d.srv.Close()
}

// warmup starts a server, checks /healthz and runs four fixed jobs outside
// any stream: a prune-only and a dedup exhaustive job, a sampling job, and a
// resubmission answered from the cache.
func (b *daemonBench) warmup() error {
	d := b.start(nil)
	defer d.stop()
	resp, err := d.ts.Client().Get(d.ts.URL + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	for _, req := range []service.Request{b.pruneOnly[0], b.withStore[0], b.sampling("commitadopt", "walk", 1), b.pruneOnly[0]} {
		if r := b.do(d, req, "", nil); r.failure != "" {
			return fmt.Errorf("warm-up job: %s", r.failure)
		}
	}
	return nil
}

func (b *daemonBench) pass(i int, tr *tracer) (passResult, error) {
	var pr passResult
	reqs := b.stream(i)
	d := b.start(tr)
	defer d.stop()
	recs := make([]jobRecord, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(reqs) {
					return
				}
				recs[k] = b.do(d, reqs[k], fmt.Sprintf("pass%d-job%d", i, k), tr)
			}
		}()
	}
	wg.Wait()
	pr.dur = time.Since(start)
	var stats service.StatsRecord
	if err := getJSON(d.ts.Client(), d.ts.URL+"/stats", &stats); err != nil {
		return pr, err
	}
	b.cache.Hits += stats.Cache.Hits
	b.cache.Joins += stats.Cache.Joins
	b.cache.Misses += stats.Cache.Misses
	b.pool.Reused += stats.Pool.Reused
	b.pool.Spawned += stats.Pool.Spawned
	if err := b.check(recs); err != nil {
		return pr, err
	}
	for _, r := range recs {
		pr.attempted++
		if r.failure != "" {
			pr.failed++
			continue
		}
		pr.verdicts = append(pr.verdicts, ms(r.lat))
		if tr != nil {
			continue
		}
		b.submit = append(b.submit, ms(r.submit))
		if r.cached {
			b.hitLat = append(b.hitLat, ms(r.lat))
			continue
		}
		b.jobLat = append(b.jobLat, ms(r.lat))
		var res service.Result
		if err := json.Unmarshal(r.result, &res); err == nil {
			e := engineMS(res)
			b.engine = append(b.engine, e)
			b.over = append(b.over, ms(r.lat)-e)
		}
	}
	if tr == nil {
		b.done += len(recs)
		b.secs += pr.dur.Seconds()
	}
	return pr, nil
}

func engineMS(r service.Result) float64 {
	switch {
	case r.Explore != nil:
		return float64(r.Explore.ElapsedMS)
	case r.Sample != nil:
		return float64(r.Sample.ElapsedMS)
	}
	return 0
}

// do submits one job and reads its event stream to the result line.
func (b *daemonBench) do(d daemonRun, req service.Request, job string, tr *tracer) jobRecord {
	var r jobRecord
	id := tr.begin("client job", 0, job)
	defer tr.end(id)
	start := time.Now()
	body, err := json.Marshal(req)
	if err != nil {
		r.failure = err.Error()
		return r
	}
	sid := tr.begin("POST /jobs", id, job)
	hreq, err := http.NewRequest(http.MethodPost, d.ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		tr.end(sid)
		r.failure = err.Error()
		return r
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(jobHeader, job)
	resp, err := d.ts.Client().Do(hreq)
	if err != nil {
		tr.end(sid)
		r.failure = err.Error()
		return r
	}
	var st service.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.end(sid)
	r.submit = time.Since(start)
	if resp.StatusCode/100 != 2 || derr != nil {
		r.failure = fmt.Sprintf("POST /jobs: status %d (%v)", resp.StatusCode, derr)
		return r
	}
	r.key = st.Key
	sid = tr.begin("GET /jobs/{id}/events", id, job)
	defer tr.end(sid)
	hreq, err = http.NewRequest(http.MethodGet, d.ts.URL+"/jobs/"+st.ID+"/events", nil)
	if err != nil {
		r.failure = err.Error()
		return r
	}
	hreq.Header.Set(jobHeader, job)
	resp, err = d.ts.Client().Do(hreq)
	if err != nil {
		r.failure = err.Error()
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		r.failure = fmt.Sprintf("events: status %d", resp.StatusCode)
		return r
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type   string          `json:"type"`
			Result json.RawMessage `json:"result"`
			Cached bool            `json:"cached"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			r.failure = "events: " + err.Error()
			return r
		}
		if ev.Type != "result" {
			continue
		}
		r.lat = time.Since(start)
		r.cached = ev.Cached
		r.result = ev.Result
		var res service.Result
		if err := json.Unmarshal(ev.Result, &res); err != nil {
			r.failure = "result: " + err.Error()
		} else if res.Verdict == service.VerdictError || res.Verdict == service.VerdictCanceled {
			r.failure = "verdict " + res.Verdict + ": " + res.Error
		}
		return r
	}
	r.failure = "event stream ended without a result"
	return r
}

// check is the daemon's correctness gate: every cached or joined record is
// byte-identical to the one record its leader computed, exhaustive records
// visit the run count of a direct exploration of the same cell, and
// sampling records drew their whole budget without a violation.
func (b *daemonBench) check(recs []jobRecord) error {
	leader := map[string]jobRecord{}
	for _, r := range recs {
		if r.failure != "" || r.cached {
			continue
		}
		if _, dup := leader[r.key]; dup {
			return fmt.Errorf("key %.12s was computed twice", r.key)
		}
		leader[r.key] = r
		var res service.Result
		if err := json.Unmarshal(r.result, &res); err != nil {
			return err
		}
		switch res.Engine.Mode {
		case service.ModeExhaustive:
			want, ok := b.ref[r.key]
			if !ok || res.Verdict != service.VerdictExhausted || res.Explore.Runs != want {
				return fmt.Errorf("%s %s: verdict %s with %d runs, a direct exploration visits %d", res.Spec, res.Params, res.Verdict, res.Explore.Runs, want)
			}
		case service.ModeSample:
			if res.Verdict != service.VerdictSampled || res.Sample.Samples != b.samples {
				return fmt.Errorf("%s %s: verdict %s with %d samples, want %s with %d", res.Spec, res.Params, res.Verdict, res.Sample.Samples, service.VerdictSampled, b.samples)
			}
		}
	}
	for _, r := range recs {
		if r.failure != "" || !r.cached {
			continue
		}
		l, ok := leader[r.key]
		if !ok {
			return fmt.Errorf("key %.12s answered from the cache but never computed", r.key)
		}
		if !bytes.Equal(l.result, r.result) {
			return fmt.Errorf("key %.12s: cached record differs from the computed one:\n%s\n%s", r.key, l.result, r.result)
		}
	}
	return nil
}

func (b *daemonBench) report(m metrics) {
	m.set("service.job_p50_ms", percentile(b.jobLat, 0.5))
	m.set("service.job_p95_ms", percentile(b.jobLat, 0.95))
	m.set("service.hit_p50_ms", percentile(b.hitLat, 0.5))
	m.set("service.hit_p95_ms", percentile(b.hitLat, 0.95))
	m.set("service.hit_p99_ms", percentile(b.hitLat, 0.99))
	m.set("service.jobs_per_sec", ratio(float64(b.done), b.secs))
	m.set("service.submit_ms", median(b.submit))
	m.set("service.handler_ms.post_jobs", median(b.handler.post))
	m.set("service.engine_ms", median(b.engine))
	m.set("service.overhead_ms", median(b.over))
	m.set("service.pool_reuse_ratio", ratio(float64(b.pool.Reused), float64(b.pool.Reused+b.pool.Spawned)))
	hits := float64(b.cache.Hits + b.cache.Joins)
	m.set("service.hit_ratio", ratio(hits, hits+float64(b.cache.Misses)))
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
