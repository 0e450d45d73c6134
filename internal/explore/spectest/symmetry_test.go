package spectest_test

// The two obligations of the symmetry battery that need more than the
// registered specs offer: a PLANTED violation (byte-identical counterexample
// scripts with symmetry on and off) and a strict orbit-collapse witness
// (symmetry+dedup explores strictly fewer runs than dedup alone on the
// commit-adopt cell the benchmarks track).

import (
	"errors"
	"testing"

	"mpcn/internal/agreement"
	"mpcn/internal/explore"
	"mpcn/internal/explore/spec"
	"mpcn/internal/explore/spectest"
	"mpcn/internal/sched"

	_ "mpcn/internal/explore/sessions" // register the scenario specs
)

// plantedCommitAdopt is the commit-adopt harness with a deliberately false
// property: "some process commits on every schedule". Commit-adopt only
// guarantees convergence under equal proposals, so schedules interleaving
// distinct proposals refute it — symmetrically in the process identities,
// which makes it the right planted bug for the counterexample-stability
// check: the property, like the harness, is permutation-invariant.
func plantedCommitAdopt(n int) explore.Session {
	type out struct {
		v         any
		committed bool
	}
	var outs []out
	var ca *agreement.CommitAdopt
	bodies := make([]sched.Proc, n)
	for i := range bodies {
		v := 100 + i
		bodies[i] = func(e *sched.Env) {
			got, c := ca.Propose(e, v)
			outs = append(outs, out{v: got, committed: c})
			e.Decide(got)
		}
	}
	canon := func(v any) any {
		if i, ok := v.(int); ok && i >= 100 && i < 100+n {
			return "‹proposal›"
		}
		return v
	}
	return explore.Session{
		Symmetric: true,
		Canon:     canon,
		Make: func() []sched.Proc {
			outs = outs[:0]
			ca = agreement.NewCommitAdopt("ca", n)
			return bodies
		},
		Check: func(res *sched.Result) error {
			if len(outs) < n {
				return nil // a crash cut someone off; only full runs must commit
			}
			for _, o := range outs {
				if o.committed {
					return nil
				}
			}
			return errors.New("planted: no process committed")
		},
		Fingerprint: func(h *sched.FP) {
			ca.Fingerprint(h)
			for i := range outs {
				t := h.Sub()
				t.Value(outs[i].v)
				t.Bool(outs[i].committed)
				d := t.Sum()
				h.Word(d.Lo)
			}
		},
	}
}

// TestSymmetryCounterexampleStability plants a violated property in the
// commit-adopt harness and checks that symmetry reduction reports the
// byte-identical counterexample script that plain dedup does: the reduction
// cuts subtrees only AFTER their canonical state was fully explored once, so
// the DFS-first violation — which both walks reach along the identical
// decision prefix — is untouched.
func TestSymmetryCounterexampleStability(t *testing.T) {
	base := explore.Config{MaxRuns: 200000, Dedup: true}
	_, dedupErr := explore.ExploreSession(plantedCommitAdopt(3), base)

	sym := base
	sym.Symmetry = true
	_, symErr := explore.ExploreSession(plantedCommitAdopt(3), sym)

	var dedupPE, symPE *explore.PropertyError
	if !errors.As(dedupErr, &dedupPE) {
		t.Fatalf("dedup walk missed the planted violation: %v", dedupErr)
	}
	if !errors.As(symErr, &symPE) {
		t.Fatalf("symmetric walk missed the planted violation: %v", symErr)
	}
	if len(dedupPE.Script) == 0 {
		t.Fatal("counterexample without a script")
	}
	if got, want := len(symPE.Script), len(dedupPE.Script); got != want {
		t.Fatalf("counterexample lengths differ: symmetry %d vs dedup %d\nsym:   %v\ndedup: %v",
			got, want, symPE.Script, dedupPE.Script)
	}
	for i := range dedupPE.Script {
		if symPE.Script[i] != dedupPE.Script[i] {
			t.Fatalf("counterexample scripts differ at step %d:\nsym:   %v\ndedup: %v",
				i, symPE.Script, dedupPE.Script)
		}
	}
}

// TestSymmetryOrbitCollapse is the strict reduction witness on the cell the
// benchmarks gate on: commit-adopt with three proposers and no crashes. The
// three bodies are identical up to the proposal value the Canon erases, so
// genuinely distinct orbits collapse and the symmetric walk must replay
// STRICTLY fewer runs — a ≤ here would mean the canonicalization never fires.
func TestSymmetryOrbitCollapse(t *testing.T) {
	s, err := spec.Lookup("commitadopt")
	if err != nil {
		t.Fatalf("commitadopt spec not registered: %v", err)
	}
	p, err := spec.Resolve(s, spec.Params{"n": 3, spec.ParamCrashes: 0})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	base, err := spec.Config(s, p, explore.Config{MaxRuns: 200000, Dedup: true})
	if err != nil {
		t.Fatalf("Config: %v", err)
	}

	dedup, err := explore.ExploreSession(s.New(p), base)
	if err != nil || !dedup.Exhausted {
		t.Fatalf("dedup walk: err=%v stats=%+v", err, dedup)
	}
	sym := base
	sym.Symmetry = true
	symSt, err := explore.ExploreSession(s.New(p), sym)
	if err != nil || !symSt.Exhausted {
		t.Fatalf("symmetric walk: err=%v stats=%+v", err, symSt)
	}
	if symSt.Runs >= dedup.Runs {
		t.Fatalf("no orbit collapse: symmetry %d runs vs dedup %d", symSt.Runs, dedup.Runs)
	}
	t.Logf("orbit collapse on commitadopt n=3: %d -> %d runs (%.2fx)",
		dedup.Runs, symSt.Runs, float64(dedup.Runs)/float64(symSt.Runs))
}

// TestPermuteScriptMapsLabels pins the script-permutation helper itself:
// decision targets and own-cell label indices map through pi, everything
// else is untouched.
func TestPermuteScriptMapsLabels(t *testing.T) {
	// Scripts name interned labels only; intern the objects' labels as
	// their constructors would.
	sched.InternIndexed("%s[%d].write", "r", 3)
	sched.InternIndexed("%s[%d].update", "ca.ph1", 3)
	sched.Intern("tas.test-and-set")
	sched.Intern("x")
	pi := []sched.ProcID{1, 2, 0}
	in := []string{"run(0@r[0].write)", "crash(2@ca.ph1[2].update)", "run(1@tas.test-and-set)"}
	want := []string{"run(1@r[1].write)", "crash(0@ca.ph1[0].update)", "run(2@tas.test-and-set)"}
	got, err := spectest.PermuteScript(in, pi)
	if err != nil {
		t.Fatalf("PermuteScript: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: got %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := spectest.PermuteScript([]string{"run(5@x)"}, pi); err == nil {
		t.Error("process outside the permutation accepted")
	}
	if _, err := spectest.PermuteScript([]string{"nonsense"}, pi); err == nil {
		t.Error("unparseable entry accepted")
	}
}
