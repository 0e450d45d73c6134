// The job runner: one accepted submission's lifecycle from queue slot to
// terminal Result, through the single-flight cache and the engines.

package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
)

// jobState is one accepted submission resident in the daemon.
type jobState struct {
	id     string
	client string
	job    *Job
	key    string

	ctx    context.Context
	cancel context.CancelFunc

	state atomic.Value // string; one of the State* constants

	// Live engine counters, polled by the events stream.
	prog *explore.Progress

	mu       sync.Mutex
	result   *Result
	cached   bool // answered from the cache without running
	created  time.Time
	started  time.Time
	finished time.Time

	done chan struct{}
}

func newJobState(id, client string, j *Job) *jobState {
	ctx, cancel := context.WithCancel(context.Background())
	js := &jobState{
		id:      id,
		client:  client,
		job:     j,
		key:     j.Key(),
		ctx:     ctx,
		cancel:  cancel,
		created: time.Now(),
		done:    make(chan struct{}),
		prog:    &explore.Progress{},
	}
	js.state.Store(StateQueued)
	return js
}

// Cancel requests cancellation: queued jobs finish as canceled when popped,
// running jobs stop at the engines' next run boundary.
func (js *jobState) Cancel() {
	js.cancel()
}

func (js *jobState) stateName() string { return js.state.Load().(string) }

// finish records the terminal result exactly once.
func (js *jobState) finish(r Result, cached bool, state string) {
	js.mu.Lock()
	if js.result == nil {
		js.result = &r
		js.cached = cached
		js.finished = time.Now()
		js.state.Store(state)
		close(js.done)
	}
	js.mu.Unlock()
}

// snapshot assembles the job's public status record.
func (js *jobState) snapshot() JobStatus {
	js.mu.Lock()
	defer js.mu.Unlock()
	st := JobStatus{
		ID:      js.id,
		State:   js.stateName(),
		Spec:    js.job.Spec.Name(),
		Params:  js.job.Params.Text(js.job.Spec),
		Engine:  js.job.Engine,
		Seed:    js.job.Seed,
		Key:     js.key,
		Created: js.created,
	}
	if js.result != nil {
		st.Result = js.result
		st.Cached = js.cached
	}
	p := js.prog.Snapshot()
	if js.job.Engine.Mode == ModeSample {
		st.Progress = &ProgressStatus{Samples: p.Runs, Distinct: p.Dedup.States}
	} else {
		st.Progress = &ProgressStatus{Runs: p.Runs, Pruned: p.Pruned, Distinct: p.Dedup.States}
	}
	return st
}

// ProgressStatus is the live counter surface of a running job.
type ProgressStatus struct {
	Runs     int64 `json:"runs,omitempty"`
	Pruned   int64 `json:"pruned,omitempty"`
	Samples  int64 `json:"samples,omitempty"`
	Distinct int64 `json:"distinct,omitempty"`
}

// JobStatus is the public record of a job (GET /jobs/{id}).
type JobStatus struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Spec     string          `json:"spec"`
	Params   string          `json:"params"`
	Engine   Engine          `json:"engine"`
	Seed     int64           `json:"seed,omitempty"`
	Key      string          `json:"key"`
	Created  time.Time       `json:"created"`
	Cached   bool            `json:"cached,omitempty"`
	Progress *ProgressStatus `json:"progress,omitempty"`
	Result   *Result         `json:"result,omitempty"`
}

// runJob drives one popped job to its terminal result through the cache.
func runJob(js *jobState, cache *Cache, pool *SessionPool) {
	if js.ctx.Err() != nil {
		js.finish(canceledResult(js.job), false, StateCanceled)
		return
	}
	for {
		lease := cache.Begin(js.key)
		if lease.Leader() {
			js.mu.Lock()
			js.started = time.Now()
			js.mu.Unlock()
			js.state.Store(StateRunning)
			r := execute(js.ctx, js.job, js.prog, pool)
			if r.Verdict == VerdictCanceled {
				// Free the key so the next identical submission re-runs, but
				// still deliver the cancellation to any followers.
				lease.Complete(r)
				js.finish(r, false, StateCanceled)
				return
			}
			lease.Complete(r)
			js.finish(r, false, StateDone)
			return
		}
		select {
		case <-lease.Done():
			if r, ok := lease.Result(); ok && r.Cacheable() {
				js.finish(r, true, StateDone)
				return
			}
			// The leader aborted or its record was transient (canceled,
			// engine failure): claim the key ourselves.
			if js.ctx.Err() != nil {
				js.finish(canceledResult(js.job), false, StateCanceled)
				return
			}
		case <-js.ctx.Done():
			js.finish(canceledResult(js.job), false, StateCanceled)
			return
		}
	}
}

// canceledResult is the terminal record of a job canceled before or while
// waiting on another flight.
func canceledResult(j *Job) Result {
	r := NewResult(j, explore.Stats{}, sample.Stats{}, context.Canceled)
	return r
}

// execute runs the job's engine under its context, wired to the pool and the
// job's live progress counters. Engine.Workers carries over to the engine
// config, where 1 selects the sequential engine.
func execute(ctx context.Context, j *Job, prog *explore.Progress, pool *SessionPool) Result {
	if j.Engine.Mode == ModeSample {
		cfg, err := j.SampleConfig()
		if err != nil {
			return NewResult(j, explore.Stats{}, sample.Stats{}, err)
		}
		cfg.Progress = prog
		cfg.Runtime = pool
		st, err := sample.RunContext(ctx, spec.Factory(j.Spec, j.Params), j.Engine.Strategy, cfg)
		return NewResult(j, explore.Stats{}, st, err)
	}
	cfg, err := j.ExploreConfig()
	if err != nil {
		return NewResult(j, explore.Stats{}, sample.Stats{}, err)
	}
	cfg.Progress = prog
	cfg.Runtime = pool
	st, err := explore.ExploreContext(ctx, spec.Factory(j.Spec, j.Params), cfg)
	return NewResult(j, st, sample.Stats{}, err)
}
