package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mpcn/internal/explore"
	"mpcn/internal/sched"
)

// tracer keeps the spans of one traced run in memory until the run ends.
// A nil *tracer records nothing, so untraced passes call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call across a layer boundary. Calls aggregates the
// per-call harness closures (Make, Check, Fingerprint) run under the span,
// so no per-call spans are stored. Spans of one daemon job share Job.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    string  `json:"job,omitempty"`
	Name   string  `json:"name"`
	Start  int64   `json:"startNs"`
	End    int64   `json:"endNs"`
	Calls  []calls `json:"calls,omitempty"`
	SelfNS int64   `json:"selfNs"`
}

// calls is a count and a total time of one closure under a span.
type calls struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"totalNs"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int, job string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id, attaching the closure aggregates recorded under it.
func (t *tracer) end(id int, cs ...calls) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Calls = append(t.spans[id-1].Calls, cs...)
}

// finish computes every span's self time — its duration minus the time its
// child spans and closure calls cover — and writes the spans to
// dir/<workload>.json. With dir empty the spans are dropped.
func (t *tracer) finish(dir, workload string) error {
	if dir == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNS = s.End - s.Start - child[s.ID]
		for _, c := range s.Calls {
			s.SelfNS -= c.TotalNS
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span directory: %w", err)
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), b, 0o644)
}

// harnessTimes counts and times the closures of explore.Sessions wrapped by
// wrap. Its fields are atomic because parallel engines call one wrapped
// factory's sessions from several workers.
type harnessTimes struct {
	makeN, makeNS   atomic.Int64
	checkN, checkNS atomic.Int64
	fpN, fpNS       atomic.Int64
	steps           atomic.Int64
}

// wrap returns s with Make, Check and Fingerprint timed into h. Check also
// sums Result.Steps, the scheduler's step count.
func (h *harnessTimes) wrap(s explore.Session) explore.Session {
	mk, check, fp := s.Make, s.Check, s.Fingerprint
	s.Make = func() []sched.Proc {
		t := time.Now()
		b := mk()
		h.makeNS.Add(int64(time.Since(t)))
		h.makeN.Add(1)
		return b
	}
	s.Check = func(r *sched.Result) error {
		h.steps.Add(int64(r.Steps))
		t := time.Now()
		err := check(r)
		h.checkNS.Add(int64(time.Since(t)))
		h.checkN.Add(1)
		return err
	}
	if fp != nil {
		s.Fingerprint = func(f *sched.FP) {
			t := time.Now()
			fp(f)
			h.fpNS.Add(int64(time.Since(t)))
			h.fpN.Add(1)
		}
	}
	return s
}

// calls renders the aggregates for a span (none for a nil h: an untraced
// call).
func (h *harnessTimes) calls() []calls {
	if h == nil {
		return nil
	}
	return []calls{
		{Name: "sessions.make", Count: h.makeN.Load(), TotalNS: h.makeNS.Load()},
		{Name: "sessions.check", Count: h.checkN.Load(), TotalNS: h.checkNS.Load()},
		{Name: "sessions.fingerprint", Count: h.fpN.Load(), TotalNS: h.fpNS.Load()},
	}
}

// closureNS is the total time spent inside the wrapped closures.
func (h *harnessTimes) closureNS() int64 {
	return h.makeNS.Load() + h.checkNS.Load() + h.fpNS.Load()
}

// add folds o into h.
func (h *harnessTimes) add(o *harnessTimes) {
	h.makeN.Add(o.makeN.Load())
	h.makeNS.Add(o.makeNS.Load())
	h.checkN.Add(o.checkN.Load())
	h.checkNS.Add(o.checkNS.Load())
	h.fpN.Add(o.fpN.Load())
	h.fpNS.Add(o.fpNS.Load())
	h.steps.Add(o.steps.Load())
}

// jobHeader carries a daemon job's benchmark ID on every request the client
// makes for it, so the server-side middleware span joins the job's spans.
const jobHeader = "X-Bench-Job"

// handlerTimes records the server-side time of each POST /jobs.
type handlerTimes struct {
	mu   sync.Mutex
	post []float64 // POST /jobs, ms
}

// middleware times every request through next, recording a span per
// request under the job named by jobHeader.
func (t *tracer) middleware(next http.Handler, ht *handlerTimes) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin("service.handler "+r.Method+" "+r.URL.Path, 0, r.Header.Get(jobHeader))
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		t.end(id)
		if r.Method == http.MethodPost && r.URL.Path == "/jobs" {
			ht.mu.Lock()
			ht.post = append(ht.post, ms(d))
			ht.mu.Unlock()
		}
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
