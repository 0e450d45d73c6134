// The HTTP/JSON surface of the exploration daemon: spec catalog, job
// submission and lifecycle, NDJSON progress streaming, and operational
// counters. Routing uses net/http's pattern syntax; every error response is
// a structured ErrorBody.

package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"mpcn/internal/explore/spec"
)

// ServerConfig bounds a Server.
type ServerConfig struct {
	// QueueCap bounds the FIFO job queue (0 = 64).
	QueueCap int
	// Runners is the number of job-executing workers draining the queue
	// (0 = 2). Each running job may itself fan out across its engine's
	// worker pool, so a couple of runners saturate a machine.
	Runners int
	// RatePerSec and RateBurst configure the per-client token bucket
	// (RatePerSec <= 0 disables limiting).
	RatePerSec float64
	RateBurst  int
	// MaxIdleSessions bounds the warm session pool per process count
	// (0 = 8).
	MaxIdleSessions int
	// StreamInterval is the events stream's progress poll period (0 = 100ms).
	StreamInterval time.Duration
}

// Server is the daemon core: admission control, the job table, the runner
// pool, the result cache and the session pool, behind an http.Handler.
type Server struct {
	cfg     ServerConfig
	cache   *Cache
	queue   *queue
	limiter *RateLimiter
	pool    *SessionPool

	mu     sync.Mutex
	jobs   map[string]*jobState
	order  []string // submission order, for GET /jobs
	nextID int

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewServer builds and starts a server: its runner goroutines begin
// draining the queue immediately. Close shuts them down.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Runners <= 0 {
		cfg.Runners = 2
	}
	if cfg.StreamInterval <= 0 {
		cfg.StreamInterval = 100 * time.Millisecond
	}
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(),
		queue:   newQueue(cfg.QueueCap),
		limiter: NewRateLimiter(cfg.RatePerSec, cfg.RateBurst),
		pool:    NewSessionPool(cfg.MaxIdleSessions),
		jobs:    make(map[string]*jobState),
		stop:    make(chan struct{}),
	}
	for i := 0; i < cfg.Runners; i++ {
		s.wg.Add(1)
		go s.runLoop()
	}
	return s
}

// Close stops the runner pool (canceling any running jobs) and drains the
// session pool.
func (s *Server) Close() {
	close(s.stop)
	s.mu.Lock()
	for _, js := range s.jobs {
		js.Cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.pool.Close()
}

// runLoop is one runner worker: pop, skip canceled, execute.
func (s *Server) runLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case js := <-s.queue.ch:
			runJob(js, s.cache, s.pool)
		}
	}
}

// Submit validates, canonicalizes, admits and enqueues a request, returning
// the job's public status. client is the rate-limit identity.
func (s *Server) Submit(req Request, client string) (JobStatus, error) {
	if ok, wait := s.limiter.Allow(client); !ok {
		return JobStatus{}, fmt.Errorf("%w (retry in %v)", ErrRateLimited, wait.Round(time.Millisecond))
	}
	j, err := Prepare(req)
	if err != nil {
		return JobStatus{}, err
	}
	// Enqueue and register in one critical section: push never blocks, and
	// a job the queue bounces is never seen by GET /jobs or a concurrent
	// Submit.
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	js := newJobState(id, client, j)
	if err := s.queue.push(js); err != nil {
		s.mu.Unlock()
		js.cancel()
		return JobStatus{}, err
	}
	s.jobs[id] = js
	s.order = append(s.order, id)
	s.mu.Unlock()
	return js.snapshot(), nil
}

// Job returns a job's state by id.
func (s *Server) Job(id string) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	return js, ok
}

// StatsRecord is the GET /stats payload.
type StatsRecord struct {
	Jobs       int        `json:"jobs"`
	QueueDepth int        `json:"queueDepth"`
	Cache      CacheStats `json:"cache"`
	Pool       PoolStats  `json:"pool"`
}

// Stats snapshots the operational counters.
func (s *Server) Stats() StatsRecord {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	return StatsRecord{
		Jobs:       jobs,
		QueueDepth: s.queue.depth(),
		Cache:      s.cache.Stats(),
		Pool:       s.pool.Stats(),
	}
}

// Handler builds the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /specs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, spec.DescribeAll())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	return mux
}

// clientOf derives the rate-limit identity: the remote host, overridable by
// an explicit client header (one daemon fronting several tools).
func clientOf(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{Error: "malformed request: " + err.Error(), Kind: "bad_request"})
		return
	}
	st, err := s.Submit(req, clientOf(r))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// writeSubmitError maps admission failures to status codes and typed bodies.
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrRateLimited):
		writeError(w, http.StatusTooManyRequests, ErrorBody{Error: err.Error(), Kind: "rate_limited"})
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, ErrorBody{Error: err.Error(), Kind: "queue_full"})
	default:
		body := ErrorBody{Error: err.Error(), Kind: "bad_request"}
		var pe *spec.ParamError
		if errors.As(err, &pe) {
			info := pe.Info()
			body.Kind = "param"
			body.Param = &info
		}
		writeError(w, http.StatusBadRequest, body)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if js, ok := s.Job(id); ok {
			out = append(out, js.snapshot())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	js, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrorBody{Error: "no such job", Kind: "not_found"})
		return
	}
	writeJSON(w, http.StatusOK, js.snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	js, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrorBody{Error: "no such job", Kind: "not_found"})
		return
	}
	js.Cancel()
	writeJSON(w, http.StatusOK, js.snapshot())
}

// Event is one line of the NDJSON events stream: progress ticks while the
// job runs, then one terminal result line.
type Event struct {
	Type string `json:"type"` // "status", "progress" or "result"
	Job  string `json:"job"`
	// State accompanies status events; Progress progress events; Result
	// (with Cached) the terminal event.
	State    string          `json:"state,omitempty"`
	Progress *ProgressStatus `json:"progress,omitempty"`
	Result   *Result         `json:"result,omitempty"`
	Cached   bool            `json:"cached,omitempty"`
}

// handleEvents streams a job's lifecycle as NDJSON: an initial status line,
// a progress line per poll tick while the job runs, and one final result
// line. The stream ends at the terminal line (or when the client goes away).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	js, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrorBody{Error: "no such job", Kind: "not_found"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	emit := func(ev Event) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		flush()
		return true
	}
	if !emit(Event{Type: "status", Job: js.id, State: js.stateName()}) {
		return
	}
	ticker := time.NewTicker(s.cfg.StreamInterval)
	defer ticker.Stop()
	for {
		select {
		case <-js.done:
			st := js.snapshot()
			emit(Event{Type: "result", Job: js.id, State: st.State, Result: st.Result, Cached: st.Cached})
			return
		case <-ticker.C:
			st := js.snapshot()
			if !emit(Event{Type: "progress", Job: js.id, State: st.State, Progress: st.Progress}) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, body ErrorBody) {
	writeJSON(w, status, body)
}
