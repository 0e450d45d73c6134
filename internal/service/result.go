// Result: the wire encoding of a finished job, shared verbatim by the
// exploredd daemon's /jobs responses and cmd/explore's -json mode — one
// submission, two transports, identical records.

package service

import (
	"context"
	"encoding/json"
	"errors"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
)

// ExploreStats is the JSON projection of an exhaustive run's counters.
type ExploreStats struct {
	Runs      int   `json:"runs"`
	Exhausted bool  `json:"exhausted"`
	MaxDepth  int   `json:"maxDepth"`
	Pruned    int   `json:"pruned,omitempty"`
	Distinct  int64 `json:"distinct,omitempty"`
	DedupHits int64 `json:"dedupHits,omitempty"`
	ElapsedMS int64 `json:"elapsedMs"`
}

// SampleStats is the JSON projection of a sampling run's counters.
type SampleStats struct {
	Strategy  string  `json:"strategy"`
	Samples   int     `json:"samples"`
	MaxDepth  int     `json:"maxDepth"`
	Distinct  int64   `json:"distinct,omitempty"`
	PCTBound  float64 `json:"pctBound,omitempty"`
	ElapsedMS int64   `json:"elapsedMs"`
}

// SampleRef is the reproducing address of a sampled violation: sample Index
// of the (Seed, Strategy) stream re-derives the identical schedule
// (sample.Replay's contract).
type SampleRef struct {
	Index    int    `json:"index"`
	Seed     int64  `json:"seed"`
	Strategy string `json:"strategy"`
}

// Violation is a property violation's replay artifact.
type Violation struct {
	// Error is the checker's message.
	Error string `json:"error"`
	// Script is the reproducing decision sequence in the engines' replay-
	// script syntax ("run(0@label)", "crash(1@label)").
	Script []string `json:"script"`
	// Sample addresses a sampled violation's reproducing (seed, strategy,
	// index) triple; nil for exhaustive jobs (the script alone replays).
	Sample *SampleRef `json:"sample,omitempty"`
}

// Result is the terminal record of one job.
type Result struct {
	// Verdict is one of the Verdict* constants.
	Verdict string `json:"verdict"`
	// Spec and Params identify the checked cell; Params is the canonical
	// sorted "name=value" text (string-domain values symbolic), the exact
	// form the CLI accepts back through -set.
	Spec   string `json:"spec"`
	Params string `json:"params"`
	// Engine is the canonicalized engine config; Seed the canonicalized
	// stream seed (zero for exhaustive jobs).
	Engine Engine `json:"engine"`
	Seed   int64  `json:"seed,omitempty"`
	// Explore/Sample carry the engine counters (exactly one is set on
	// verdicts the engines produced).
	Explore *ExploreStats `json:"explore,omitempty"`
	Sample  *SampleStats  `json:"sample,omitempty"`
	// Violation carries the replay artifact of a VerdictViolation.
	Violation *Violation `json:"violation,omitempty"`
	// Error is the engine failure of a VerdictError.
	Error string `json:"error,omitempty"`
}

// exploreStats projects the engine counters.
func exploreStats(st explore.Stats) *ExploreStats {
	return &ExploreStats{
		Runs:      st.Runs,
		Exhausted: st.Exhausted,
		MaxDepth:  st.MaxDepth,
		Pruned:    st.Pruned,
		Distinct:  st.Dedup.States,
		DedupHits: st.Dedup.Hits,
		ElapsedMS: st.Elapsed.Milliseconds(),
	}
}

// sampleStats projects the engine counters.
func sampleStats(st sample.Stats) *SampleStats {
	return &SampleStats{
		Strategy:  st.Strategy,
		Samples:   st.Samples,
		MaxDepth:  st.MaxDepth,
		Distinct:  st.Distinct,
		PCTBound:  st.PCTBound,
		ElapsedMS: st.Elapsed.Milliseconds(),
	}
}

// violationOf extracts the replay artifact from an engine error, nil when
// the error is not a property violation.
func violationOf(err error) *Violation {
	var pe *explore.PropertyError
	if !errors.As(err, &pe) {
		return nil
	}
	v := &Violation{Error: pe.Unwrap().Error(), Script: pe.Script}
	var se *sample.SampleError
	if errors.As(err, &se) {
		v.Error = se.Unwrap().Error()
		v.Sample = &SampleRef{Index: se.Sample, Seed: se.Seed, Strategy: se.Strategy}
	}
	return v
}

// NewResult assembles the terminal record of a job from what its engine
// returned. Exactly one of est/sst is consulted, selected by j.Engine.Mode.
func NewResult(j *Job, est explore.Stats, sst sample.Stats, err error) Result {
	r := Result{
		Spec:   j.Spec.Name(),
		Params: j.Params.Text(j.Spec),
		Engine: j.Engine,
		Seed:   j.Seed,
	}
	if j.Engine.Mode == ModeSample {
		r.Sample = sampleStats(sst)
	} else {
		r.Explore = exploreStats(est)
	}
	switch {
	case err == nil:
		switch {
		case j.Engine.Mode == ModeSample:
			r.Verdict = VerdictSampled
		case est.Exhausted:
			r.Verdict = VerdictExhausted
		default:
			r.Verdict = VerdictPartial
		}
	case violationOf(err) != nil:
		r.Verdict = VerdictViolation
		r.Violation = violationOf(err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.Verdict = VerdictCanceled
		r.Error = err.Error()
	default:
		r.Verdict = VerdictError
		r.Error = err.Error()
	}
	return r
}

// Cacheable reports whether the record answers future identical submissions:
// verdicts the engines computed deterministically from the job's content.
// Cancellations and engine failures are transient and must re-run.
func (r Result) Cacheable() bool {
	switch r.Verdict {
	case VerdictExhausted, VerdictPartial, VerdictSampled, VerdictViolation:
		return true
	}
	return false
}

// encode is the record's JSON encoding, the bytes an events stream's result
// line carries. A Result holds only strings, integers, booleans and a finite
// PCTBound, so encoding cannot fail.
func (r Result) encode() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic("service: encode result: " + err.Error())
	}
	return b
}
