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
	enc      []byte // result's JSON encoding, the events stream's record
	cached   bool   // answered from the cache without running
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

// finish records the terminal result and its encoding exactly once.
func (js *jobState) finish(r Result, enc []byte, cached bool, state string) {
	js.mu.Lock()
	if js.result == nil {
		js.result = &r
		js.enc = enc
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
		js.finishCanceled()
		return
	}
	for {
		lease := cache.Begin(js.key)
		if lease.Leader() {
			js.mu.Lock()
			js.started = time.Now()
			js.mu.Unlock()
			js.state.Store(StateRunning)
			est, sst, err := Run(js.ctx, js.job, js.prog, pool)
			r := NewResult(js.job, est, sst, err)
			// A canceled record frees the key, so the next identical
			// submission re-runs, but still reaches any followers.
			state := StateDone
			if r.Verdict == VerdictCanceled {
				state = StateCanceled
			}
			js.finish(r, lease.Complete(r), false, state)
			return
		}
		select {
		case <-lease.Done():
			if r, enc, ok := lease.Result(); ok && r.Cacheable() {
				js.finish(r, enc, true, StateDone)
				return
			}
			// The leader aborted or its record was transient (canceled,
			// engine failure): claim the key ourselves.
			if js.ctx.Err() != nil {
				js.finishCanceled()
				return
			}
		case <-js.ctx.Done():
			js.finishCanceled()
			return
		}
	}
}

// finishCanceled ends a job canceled before it ran or while it waited on
// another flight.
func (js *jobState) finishCanceled() {
	r := NewResult(js.job, explore.Stats{}, sample.Stats{}, context.Canceled)
	js.finish(r, r.encode(), false, StateCanceled)
}

// Run runs the job's engine under ctx and returns what it returned: exactly
// one of the stats is filled, selected by j.Engine.Mode, and NewResult turns
// them into the job's record. prog, when non-nil, receives the live
// counters; rt, when non-nil, supplies the sched runtimes (the daemon's
// session pool). Engine.Workers carries over to the engine config, where 1
// selects the sequential engine. Run is the one engine dispatch of both
// transports: the daemon's runners and cmd/explore.
func Run(ctx context.Context, j *Job, prog *explore.Progress, rt explore.RuntimeSource) (explore.Stats, sample.Stats, error) {
	if j.Engine.Mode == ModeSample {
		cfg, err := j.SampleConfig()
		if err != nil {
			return explore.Stats{}, sample.Stats{}, err
		}
		cfg.Progress = prog
		cfg.Runtime = rt
		st, err := sample.RunContext(ctx, spec.Factory(j.Spec, j.Params), j.Engine.Strategy, cfg)
		return explore.Stats{}, st, err
	}
	cfg, err := j.ExploreConfig()
	if err != nil {
		return explore.Stats{}, sample.Stats{}, err
	}
	cfg.Progress = prog
	cfg.Runtime = rt
	st, err := explore.ExploreContext(ctx, spec.Factory(j.Spec, j.Params), cfg)
	return st, sample.Stats{}, err
}
