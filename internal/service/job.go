// Package service is the exploration daemon's core: a job model over the
// spec registry (internal/explore/spec) and both checking engines
// (internal/explore exhaustive, internal/explore/sample probabilistic), a
// content-addressed single-flight result cache, a FIFO job queue with
// per-client rate limiting, and a warm sched.Session pool the engines lease
// runtimes from. cmd/exploredd serves it over HTTP/JSON; cmd/explore runs
// each grid cell as a Job through NewJob and Run, and its -json mode prints
// the same Result encoding, so a job submitted over the wire and the
// equivalent CLI invocation produce identical records.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
)

// Engine modes and the verdict vocabulary shared by the daemon and
// cmd/explore -json.
const (
	ModeExhaustive = "exhaustive"
	ModeSample     = "sample"

	// VerdictExhausted: the exhaustive engine covered the whole decision tree
	// with no violation — a proof for the bounded configuration.
	VerdictExhausted = "exhausted"
	// VerdictPartial: the exhaustive walk stopped at a run budget with no
	// violation (a bounded smoke, not a proof).
	VerdictPartial = "partial"
	// VerdictSampled: every drawn sample passed the checker.
	VerdictSampled = "sampled"
	// VerdictViolation: a run violated the property; Result.Violation carries
	// the reproducing script.
	VerdictViolation = "violation"
	// VerdictCanceled: the job was canceled before reaching a verdict.
	VerdictCanceled = "canceled"
	// VerdictError: the engine itself failed (bad config, runtime failure).
	VerdictError = "error"
)

// Engine selects and bounds the checking engine of one job.
type Engine struct {
	// Mode is ModeExhaustive (the default when empty) or ModeSample.
	Mode string `json:"mode,omitempty"`
	// Workers sets the engine's worker-pool size: 1 selects the sequential
	// engine (deterministic counterexample choice), <= 0 the default
	// parallelism. Excluded from the cache key — the verdict does not depend
	// on it.
	Workers int `json:"workers,omitempty"`

	// Exhaustive-mode knobs (rejected under ModeSample). DedupMem is the
	// visited-state store's memory ceiling in MiB (0 = the engine default),
	// up to which the store grows on demand; it is not allocated up front.
	MaxRuns  int  `json:"maxRuns,omitempty"`
	Prune    bool `json:"prune,omitempty"`
	Dedup    bool `json:"dedup,omitempty"`
	DedupMem int  `json:"dedupMemMiB,omitempty"`
	Symmetry bool `json:"symmetry,omitempty"`

	// Sample-mode knobs (rejected under ModeExhaustive). Strategy is
	// walk|pct|swarm (default walk); Samples the draw budget (default: the
	// spec's declared sampling budget, else DefaultSamples); Depth the PCT
	// depth (0 = spec/engine default).
	Strategy string `json:"strategy,omitempty"`
	Samples  int    `json:"samples,omitempty"`
	Depth    int    `json:"depth,omitempty"`
}

// MaxDedupMemMiB is the largest Engine.DedupMem whose byte count fits an
// int; larger values are rejected rather than wrapped into the default.
const MaxDedupMemMiB = math.MaxInt >> 20

// DefaultSamples is the sample-mode draw budget when neither the request nor
// the spec's Sampling declaration provides one.
const DefaultSamples = 10000

// Request is one job submission.
type Request struct {
	// Spec is the registry name of the scenario to check.
	Spec string `json:"spec"`
	// Params assigns declared parameters by name; values are textual, so
	// string-domain parameters take their symbolic names ("backend":
	// "regular") exactly as the CLI's -set. Absent parameters take their
	// declared defaults.
	Params map[string]string `json:"params,omitempty"`
	// Engine selects and bounds the engine.
	Engine Engine `json:"engine,omitzero"`
	// Seed is the sample-mode schedule-stream seed (ignored — and excluded
	// from the cache key — under ModeExhaustive, whose walk is seedless).
	Seed int64 `json:"seed,omitempty"`
}

// RequestError is a rejected submission. Err is the cause: a malformed
// request or engine config, a parameter assignment the spec's declared
// domains reject (*spec.ParamError), or a capability the spec lacks
// (explore.ErrNoFingerprint, explore.ErrNoSymmetry, ...), so errors.As and
// errors.Is see through the wrapper.
type RequestError struct {
	Err error
}

// Error implements error.
func (e *RequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause.
func (e *RequestError) Unwrap() error { return e.Err }

func badRequest(format string, args ...any) *RequestError {
	return &RequestError{Err: fmt.Errorf(format, args...)}
}

// Job is a validated, canonicalized submission: the resolved spec and
// parameter assignment, the normalized engine config, and the content
// address the result cache keys on.
type Job struct {
	Spec   spec.Spec
	Params spec.Params
	// Engine is the normalized config: mode and mode-relevant defaults
	// resolved, mode-irrelevant knobs zeroed.
	Engine Engine
	// Seed is the normalized seed (zero under ModeExhaustive).
	Seed int64
}

// Prepare parses and validates a submission: the spec name and the textual
// parameter assignment resolve against the registry's declared domains, and
// NewJob takes the resolved cell from there. Failures come back as a
// *RequestError; parameter-domain rejections carry the spec's *ParamError so
// servers can render the declared domains (spec.ParamErrorInfo).
func Prepare(req Request) (*Job, error) {
	if req.Spec == "" {
		return nil, badRequest("request names no spec")
	}
	s, err := spec.Lookup(req.Spec)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	raw := make(map[string][]string, len(req.Params))
	for name, v := range req.Params {
		raw[name] = []string{v}
	}
	grids, err := spec.TextGrid(s, raw)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	cells, err := spec.Grid(s, grids)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	if len(cells) != 1 {
		return nil, badRequest("spec %q: request resolved to %d cells, want 1", req.Spec, len(cells))
	}
	return NewJob(s, cells[0], req.Engine, req.Seed)
}

// NewJob builds the job of one resolved cell p of s (an assignment from
// spec.Grid or spec.Resolve): it canonicalizes the engine config, then
// validates it against the spec by building the job's own engine config, so
// an exhaustive job's capabilities (prune, dedup, symmetry) are checked by
// spec.Config alone. Failures come back as a *RequestError wrapping the
// cause.
func NewJob(s spec.Spec, p spec.Params, eng Engine, seed int64) (*Job, error) {
	eng, seed, err := canonicalEngine(s, eng, seed)
	if err != nil {
		return nil, err
	}
	j := &Job{Spec: s, Params: p, Engine: eng, Seed: seed}
	if eng.Mode == ModeExhaustive {
		if eng.MaxRuns == 0 && spec.Unbounded(s) {
			return nil, badRequest("spec %q declares an unbounded tree: exhaustive jobs need maxRuns (or use %s mode)", s.Name(), ModeSample)
		}
		if _, err := j.ExploreConfig(); err != nil {
			return nil, &RequestError{Err: err}
		}
	}
	return j, nil
}

// canonicalEngine normalizes an engine config for one spec: the mode and its
// relevant defaults are resolved, and knobs of the other mode are rejected
// when set (a submission believing a bound applied when it did not is the
// failure mode worth rejecting loudly, exactly as cmd/explore does for
// flags). The result is canonical: two requests meaning the same job —
// default-vs-explicit, any parameter order — normalize to identical Engine
// values, which is what lets the cache key collapse them.
func canonicalEngine(s spec.Spec, e Engine, seed int64) (Engine, int64, error) {
	switch e.Mode {
	case "", ModeExhaustive:
		e.Mode = ModeExhaustive
	case ModeSample:
	default:
		return e, 0, badRequest("unknown engine mode %q (want %s or %s)", e.Mode, ModeExhaustive, ModeSample)
	}
	if e.Workers < 0 {
		e.Workers = 0
	}
	if e.Mode == ModeExhaustive {
		if e.Strategy != "" || e.Samples != 0 || e.Depth != 0 {
			return e, 0, badRequest("strategy/samples/depth apply to %s mode only", ModeSample)
		}
		if seed != 0 {
			return e, 0, badRequest("seed applies to %s mode only (the exhaustive walk is seedless)", ModeSample)
		}
		if e.MaxRuns < 0 || e.DedupMem < 0 {
			return e, 0, badRequest("negative engine bound")
		}
		if e.DedupMem > MaxDedupMemMiB {
			return e, 0, badRequest("dedupMemMiB %d overflows the byte count (max %d)", e.DedupMem, MaxDedupMemMiB)
		}
		return e, 0, nil
	}
	// Sample mode.
	if e.MaxRuns != 0 || e.Prune || e.Dedup || e.Symmetry || e.DedupMem != 0 {
		return e, 0, badRequest("maxRuns/prune/dedup/symmetry apply to %s mode only", ModeExhaustive)
	}
	if e.Strategy == "" {
		e.Strategy = sample.StrategyWalk
	}
	if _, err := sample.New(e.Strategy, 0); err != nil {
		return e, 0, badRequest("%v", err)
	}
	if e.Samples < 0 || e.Depth < 0 {
		return e, 0, badRequest("negative engine bound")
	}
	if e.Samples == 0 {
		if b := s.Sampling().Budget; b > 0 {
			e.Samples = b
		} else {
			e.Samples = DefaultSamples
		}
	}
	if e.Depth == 0 {
		e.Depth = s.Sampling().Depth // 0 = engine default; already canonical
	}
	return e, seed, nil
}

// Key is the job's content address: a hash over the canonical (spec,
// resolved params, engine, seed) tuple. Params render via Params.Text, which
// sorts names and shows string-domain values symbolically, so parameter
// order and default-vs-explicit spellings collapse; Engine and Seed were
// canonicalized by Prepare. Workers is excluded — it changes the wall clock,
// never the verdict.
func (j *Job) Key() string {
	canon := struct {
		Spec   string `json:"spec"`
		Params string `json:"params"`
		Engine Engine `json:"engine"`
		Seed   int64  `json:"seed"`
	}{j.Spec.Name(), j.Params.Text(j.Spec), j.Engine, j.Seed}
	canon.Engine.Workers = 0
	b, err := json.Marshal(canon)
	if err != nil {
		panic(fmt.Sprintf("service: canonical job key marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ExploreConfig builds the exhaustive engine config of the job (Engine.Mode
// must be ModeExhaustive). Progress and Runtime wiring is the runner's.
func (j *Job) ExploreConfig() (explore.Config, error) {
	if j.Engine.Mode != ModeExhaustive {
		return explore.Config{}, fmt.Errorf("service: ExploreConfig on a %s job", j.Engine.Mode)
	}
	return spec.Config(j.Spec, j.Params, explore.Config{
		MaxRuns:  j.Engine.MaxRuns,
		Workers:  j.Engine.Workers,
		Prune:    j.Engine.Prune,
		Dedup:    j.Engine.Dedup,
		DedupMem: j.Engine.DedupMem << 20,
		Symmetry: j.Engine.Symmetry,
	})
}

// SampleConfig builds the sampling engine config of the job (Engine.Mode
// must be ModeSample).
func (j *Job) SampleConfig() (sample.Config, error) {
	if j.Engine.Mode != ModeSample {
		return sample.Config{}, fmt.Errorf("service: SampleConfig on a %s job", j.Engine.Mode)
	}
	cfg := sample.Config{
		Samples:    j.Engine.Samples,
		Seed:       j.Seed,
		MaxCrashes: j.Params[spec.ParamCrashes],
		MaxSteps:   j.Params[spec.ParamSteps],
		Depth:      j.Engine.Depth,
		Workers:    j.Engine.Workers,
		Coverage:   true,
	}
	return cfg, nil
}
