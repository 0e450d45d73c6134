package service

import (
	"errors"
	"testing"

	"mpcn/internal/explore/spec"

	// Register the built-in scenarios.
	_ "mpcn/internal/explore/sessions"
)

func mustPrepare(t *testing.T, req Request) *Job {
	t.Helper()
	j, err := Prepare(req)
	if err != nil {
		t.Fatalf("Prepare(%+v): %v", req, err)
	}
	return j
}

// TestJobKeyCollapsesSpellings: requests meaning the same job — parameters
// given in any order, defaults spelled out or omitted — canonicalize to the
// identical cache key.
func TestJobKeyCollapsesSpellings(t *testing.T) {
	base := mustPrepare(t, Request{Spec: "commitadopt"})
	explicit := mustPrepare(t, Request{Spec: "commitadopt", Params: map[string]string{
		"n": "2", "crashes": "0", "steps": "0",
	}})
	if base.Key() != explicit.Key() {
		t.Errorf("default-vs-explicit keys diverge:\n%s\n%s", base.Key(), explicit.Key())
	}

	a := mustPrepare(t, Request{Spec: "registers", Params: map[string]string{
		"n": "2", "writes": "1", "readers": "1", "backend": "regular",
	}})
	b := mustPrepare(t, Request{Spec: "registers", Params: map[string]string{
		"backend": "regular", "readers": "1", "writes": "1", "n": "2",
	}})
	if a.Key() != b.Key() {
		t.Errorf("parameter order changed the key:\n%s\n%s", a.Key(), b.Key())
	}
}

// TestJobKeyExcludesWorkers: the worker-pool size changes the wall clock,
// never the verdict, so it must not split the cache.
func TestJobKeyExcludesWorkers(t *testing.T) {
	one := mustPrepare(t, Request{Spec: "commitadopt", Engine: Engine{Workers: 1}})
	many := mustPrepare(t, Request{Spec: "commitadopt", Engine: Engine{Workers: 8}})
	if one.Key() != many.Key() {
		t.Errorf("workers split the key:\n%s\n%s", one.Key(), many.Key())
	}
}

// TestJobKeyDistinguishesContent: anything verdict-relevant — parameter
// values, engine mode, reductions, sampling seed — must split the key.
func TestJobKeyDistinguishesContent(t *testing.T) {
	base := mustPrepare(t, Request{Spec: "commitadopt"})
	for name, req := range map[string]Request{
		"param":   {Spec: "commitadopt", Params: map[string]string{"n": "3"}},
		"crashes": {Spec: "commitadopt", Params: map[string]string{"crashes": "1"}},
		"dedup":   {Spec: "commitadopt", Engine: Engine{Dedup: true}},
		"mode":    {Spec: "commitadopt", Engine: Engine{Mode: ModeSample}},
	} {
		if mustPrepare(t, req).Key() == base.Key() {
			t.Errorf("%s change did not split the key", name)
		}
	}
	s1 := mustPrepare(t, Request{Spec: "commitadopt", Engine: Engine{Mode: ModeSample}, Seed: 1})
	s2 := mustPrepare(t, Request{Spec: "commitadopt", Engine: Engine{Mode: ModeSample}, Seed: 2})
	if s1.Key() == s2.Key() {
		t.Error("sample seed did not split the key")
	}
}

// TestJobSampleDefaultsResolved: sample-mode defaults come from the spec's
// declared sampling budgets, and a request spelling them out explicitly
// collapses onto the defaulted key.
func TestJobSampleDefaultsResolved(t *testing.T) {
	j := mustPrepare(t, Request{Spec: "bg", Engine: Engine{Mode: ModeSample}, Seed: 7})
	if j.Engine.Strategy != "walk" || j.Engine.Samples != 1500 || j.Engine.Depth != 8 {
		t.Fatalf("bg sample defaults: %+v", j.Engine)
	}
	explicit := mustPrepare(t, Request{Spec: "bg", Seed: 7, Engine: Engine{
		Mode: ModeSample, Strategy: "walk", Samples: 1500, Depth: 8,
	}})
	if j.Key() != explicit.Key() {
		t.Errorf("resolved-vs-explicit sampling keys diverge:\n%s\n%s", j.Key(), explicit.Key())
	}

	// A spec without a declared budget falls back to DefaultSamples.
	plain := mustPrepare(t, Request{Spec: "commitadopt", Engine: Engine{Mode: ModeSample}})
	if plain.Engine.Samples != DefaultSamples {
		t.Errorf("fallback budget = %d, want %d", plain.Engine.Samples, DefaultSamples)
	}
}

// TestPrepareRejections: malformed submissions fail loudly, and parameter-
// domain rejections keep the spec's typed *ParamError.
func TestPrepareRejections(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"no spec", Request{}},
		{"unknown spec", Request{Spec: "nope"}},
		{"unknown param", Request{Spec: "commitadopt", Params: map[string]string{"bogus": "1"}}},
		{"out of range", Request{Spec: "commitadopt", Params: map[string]string{"n": "0"}}},
		{"unknown enum name", Request{Spec: "registers", Params: map[string]string{"backend": "sequential"}}},
		{"unknown mode", Request{Spec: "commitadopt", Engine: Engine{Mode: "fuzz"}}},
		{"sample knob under exhaustive", Request{Spec: "commitadopt", Engine: Engine{Strategy: "walk"}}},
		{"samples under exhaustive", Request{Spec: "commitadopt", Engine: Engine{Samples: 10}}},
		{"seed under exhaustive", Request{Spec: "commitadopt", Seed: 3}},
		{"exhaustive knob under sample", Request{Spec: "commitadopt", Engine: Engine{Mode: ModeSample, Dedup: true}}},
		{"maxruns under sample", Request{Spec: "commitadopt", Engine: Engine{Mode: ModeSample, MaxRuns: 10}}},
		{"unknown strategy", Request{Spec: "commitadopt", Engine: Engine{Mode: ModeSample, Strategy: "annealing"}}},
		{"negative samples", Request{Spec: "commitadopt", Engine: Engine{Mode: ModeSample, Samples: -1}}},
		{"symmetry without dedup", Request{Spec: "commitadopt", Engine: Engine{Symmetry: true}}},
		{"symmetry unsupported", Request{Spec: "safe", Engine: Engine{Dedup: true, Symmetry: true}}},
		{"dedup unsupported", Request{Spec: "bg", Engine: Engine{Dedup: true, MaxRuns: 10}}},
		{"unbounded without maxruns", Request{Spec: "bg"}},
		{"dedupMemMiB overflows int", Request{Spec: "commitadopt", Engine: Engine{Dedup: true, DedupMem: MaxDedupMemMiB + 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Prepare(tc.req)
			if err == nil {
				t.Fatalf("%+v accepted", tc.req)
			}
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("err = %T, want *RequestError", err)
			}
		})
	}

	// Domain rejections carry the spec's typed ParamError, declared domain
	// included, so the HTTP layer can render it.
	_, err := Prepare(Request{Spec: "registers", Params: map[string]string{"backend": "sequential"}})
	var pe *spec.ParamError
	if !errors.As(err, &pe) {
		t.Fatalf("enum rejection lost its ParamError: %v", err)
	}
	if pe.ValueName != "sequential" || pe.Decl.Name != "backend" {
		t.Errorf("ParamError detail: %+v", pe)
	}

	// The unbounded rejection lifts with a run bound (a coverage smoke).
	if _, err := Prepare(Request{Spec: "bg", Engine: Engine{MaxRuns: 100}}); err != nil {
		t.Errorf("bounded bg smoke rejected: %v", err)
	}
}
