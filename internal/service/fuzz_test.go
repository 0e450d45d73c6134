package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
)

// requestOf rebuilds the submission a Result record names: its spec, its
// canonical "name=value" params, its engine and its seed.
func requestOf(r Result) Request {
	params := map[string]string{}
	for _, kv := range strings.Fields(r.Params) {
		name, v, _ := strings.Cut(kv, "=")
		params[name] = v
	}
	return Request{Spec: r.Spec, Params: params, Engine: r.Engine, Seed: r.Seed}
}

// FuzzPrepare drives the POST /jobs admission path, JSON decode then
// Prepare, with arbitrary bytes: Prepare never panics, every rejection is a
// *RequestError, and an accepted job prepared again from its Result's
// canonical spec, params, engine and seed has the same Key.
func FuzzPrepare(f *testing.F) {
	for _, tc := range rejectedRequests {
		b, err := json.Marshal(tc.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"spec": "registers", "params": {"n": "2", "backend": "regular"}, "engine": {"workers": 1}}`))
	f.Add([]byte(`{"spec": "commitadopt", "params": {"n": "3"}, "engine": {"dedup": true, "symmetry": true}}`))
	f.Add([]byte(`{"spec": "bg", "engine": {"mode": "sample", "strategy": "pct", "samples": 200}, "seed": 7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		j, err := Prepare(req)
		if err != nil {
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("rejection %v is a %T, want *RequestError", err, err)
			}
			return
		}
		again, err := Prepare(requestOf(NewResult(j, explore.Stats{}, sample.Stats{}, nil)))
		if err != nil {
			t.Fatalf("canonical form of accepted %s rejected: %v", data, err)
		}
		if again.Key() != j.Key() {
			t.Fatalf("canonical form of %s changed the key", data)
		}
	})
}
