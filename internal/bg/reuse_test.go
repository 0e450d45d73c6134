package bg

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mpcn/internal/algorithms"
	"mpcn/internal/sched"
	"mpcn/internal/tasks"
)

// TestEngineReuseMatchesGolden: the golden corpus run on one engine per
// case, Reset before every run after the first, digests exactly as the
// corpus of fresh engines does, on both session protocols; and Close leaves
// no thread coroutine behind.
func TestEngineReuseMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts sched.SessionOptions
	}{
		{"default", sched.SessionOptions{}},
		{"rendezvous", sched.SessionOptions{Rendezvous: true}},
	} {
		sessions := make(map[int]*sched.Session)
		for _, gc := range goldenCorpus() {
			n := gc.cfg.Simulators
			if sessions[n] == nil {
				s, err := sched.NewSessionWith(n, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				sessions[n] = s
			}
		}
		before := settledGoroutines()
		h := sha256.New()
		var shape corpusShape
		for _, gc := range goldenCorpus() {
			eng, err := New(gc.cfg)
			if err != nil {
				t.Fatalf("%s: %v", gc.name, err)
			}
			for seed := int64(0); seed < int64(gc.seeds); seed++ {
				if seed > 0 {
					eng.Reset()
				}
				eng.cfg.Sched = sched.Config{Adversary: gc.adv(seed), MaxSteps: gc.maxSteps, TraceCapacity: 1 << 16}
				r, err := eng.RunOn(sessions[gc.cfg.Simulators])
				digestRun(h, &shape, gc.name, seed, r, err)
			}
			eng.Close()
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != bgGoldenDigest {
			t.Errorf("%s: reused-engine corpus digest %s, golden %s", tc.name, got, bgGoldenDigest)
		}
		if got := settledGoroutines(); got > before {
			t.Errorf("%s: goroutines %d -> %d after the engines were closed", tc.name, before, got)
		}
	}
}

// TestEngineReuseAfterThreadPanic: a simulated process whose body panics
// fails the run and ends its thread's coroutine; after Reset the engine
// runs cleanly again on a new one.
func TestEngineReuseAfterThreadPanic(t *testing.T) {
	fail := true
	alg := misbehavingAlg{
		name: "flaky",
		run: func(api algorithms.API) {
			if fail && api.ID() == 1 {
				panic("bug in the simulated algorithm")
			}
			api.Write(api.Input())
			api.Decide(api.Input())
		},
	}
	before := settledGoroutines()
	eng, err := New(Config{
		Alg: alg, Inputs: tasks.DistinctInputs(3), Simulators: 2, SourceX: 1,
		NewAgreement: SafeAgreementProvider(2), Sched: sched.Config{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Reset() // keep the threads between runs
	if _, err := eng.Run(); err == nil {
		t.Fatal("a panicking simulated process did not fail the run")
	}
	fail = false
	for run := 0; run < 3; run++ {
		eng.Reset()
		r, err := eng.Run()
		if err != nil {
			t.Fatalf("run %d after the panic: %v", run, err)
		}
		for i, d := range r.SimulatorDecisions {
			if d == nil {
				t.Fatalf("run %d: simulator %d did not decide", run, i)
			}
		}
	}
	eng.Close()
	if got := settledGoroutines(); got > before {
		t.Fatalf("goroutines %d -> %d after Close", before, got)
	}
}
