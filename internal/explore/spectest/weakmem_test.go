package spectest_test

// The differential weak-memory battery. Three obligations pin the backend
// parameter's semantics:
//
//  1. Atomic anchors — the default backend of every backend-declaring spec
//     is atomic, a cell resolved at the defaults is the same cell as one
//     resolved with backend=atomic spelled out, and the registers defaults
//     still produce the seed-era visited counts (1680 crash-free runs, 8820
//     at one crash), pinned by TestAtomicAnchors. Adding the weak backends
//     must not move the atomic world by a single run.
//
//  2. A regular-only witness — on registers n=1 writes=1 readers=1 the
//     exhaustive engine exhausts cleanly under atomic and tso but finds the
//     new-then-old read inversion under regular; the violating script
//     replays verbatim under the strict contract and minimizes to the
//     handful of ordering constraints the flicker window needs.
//
//  3. The SB litmus splits the domain the other way — only tso reaches the
//     (0,0) outcome. Regular registers weaken concurrent reads, not the
//     store→load order SB probes: each load is program-ordered after its
//     own write's commit, so the two flicker windows cannot cover both
//     loads at once. Together with obligation 2 the three backends are
//     pairwise distinguishable: regular alone breaks reader monotonicity,
//     tso alone breaks SB.

import (
	"errors"
	"strings"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sessions"
	"mpcn/internal/explore/spec"
	"mpcn/internal/explore/spectest"
)

// exhaust explores the cell with the plain sequential engine (no dedup, no
// pruning — the configuration the atomic anchors were recorded under) and
// requires a clean exhaustion.
func exhaust(t *testing.T, s spec.Spec, p spec.Params) explore.Stats {
	t.Helper()
	cfg, err := spec.Config(s, p, explore.Config{})
	if err != nil {
		t.Fatalf("spec.Config(%s, %s): %v", s.Name(), p.Text(s), err)
	}
	st, err := explore.ExploreSession(s.New(p), cfg)
	if err != nil {
		t.Fatalf("explore %s at %s: %v", s.Name(), p.Text(s), err)
	}
	if !st.Exhausted {
		t.Fatalf("explore %s at %s: not exhausted after %d runs", s.Name(), p.Text(s), st.Runs)
	}
	return st
}

// violate explores the cell expecting a property violation and returns it.
func violate(t *testing.T, s spec.Spec, p spec.Params) *explore.PropertyError {
	t.Helper()
	cfg, err := spec.Config(s, p, explore.Config{})
	if err != nil {
		t.Fatalf("spec.Config(%s, %s): %v", s.Name(), p.Text(s), err)
	}
	_, err = explore.ExploreSession(s.New(p), cfg)
	var pe *explore.PropertyError
	if !errors.As(err, &pe) {
		t.Fatalf("explore %s at %s: err = %v, want a PropertyError", s.Name(), p.Text(s), err)
	}
	return pe
}

func mustLookup(t *testing.T, name string) spec.Spec {
	t.Helper()
	s, err := spec.Lookup(name)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", name, err)
	}
	return s
}

// TestBackendSpecsEnumerated pins the battery's sweep set: the registry
// holds at least the two register-built scenarios, name-sorted.
func TestBackendSpecsEnumerated(t *testing.T) {
	specs := spectest.BackendSpecs()
	names := make(map[string]bool, len(specs))
	for i, s := range specs {
		names[s.Name()] = true
		if i > 0 && specs[i-1].Name() >= s.Name() {
			t.Errorf("BackendSpecs out of order: %q before %q", specs[i-1].Name(), s.Name())
		}
	}
	for _, want := range []string{"registers", "sb"} {
		if !names[want] {
			t.Errorf("BackendSpecs misses %q (got %v)", want, names)
		}
	}
}

// TestAtomicAnchors is obligation 1: the weak backends leave the atomic
// world untouched. Every backend-declaring spec defaults to atomic and
// resolves the default cell and the explicit backend=atomic cell to the
// same assignment; the registers defaults reproduce the golden visited
// counts of the seed benchmark record, crash-free and at one crash.
func TestAtomicAnchors(t *testing.T) {
	for _, s := range spectest.BackendSpecs() {
		def, err := spec.Resolve(s, nil)
		if err != nil {
			t.Fatalf("Resolve(%s) defaults: %v", s.Name(), err)
		}
		if got := def.Text(s); !strings.Contains(got, "backend=atomic") {
			t.Errorf("%s defaults render %q, want backend=atomic in them", s.Name(), got)
		}
		explicit, err := spectest.BackendParams(s, "atomic", nil)
		if err != nil {
			t.Fatalf("BackendParams(%s, atomic): %v", s.Name(), err)
		}
		if d, e := def.Text(s), explicit.Text(s); d != e {
			t.Errorf("%s: default cell %q != explicit atomic cell %q", s.Name(), d, e)
		}
	}

	s := mustLookup(t, "registers")
	golden := []struct {
		crashes int
		runs    int
	}{
		{0, 1680}, // 9!/(3!·3!·3!): three writers, three steps each
		{1, 8820},
	}
	for _, g := range golden {
		p, err := spec.Resolve(s, spec.Params{spec.ParamCrashes: g.crashes})
		if err != nil {
			t.Fatalf("Resolve(registers, crashes=%d): %v", g.crashes, err)
		}
		st := exhaust(t, s, p)
		if st.Runs != g.runs || st.Pruned != 0 {
			t.Errorf("registers defaults crashes=%d: %d runs (%d pruned), want the golden %d runs (0 pruned)",
				g.crashes, st.Runs, st.Pruned, g.runs)
		}
		// The explicitly-atomic cell is the same tree, run for run.
		pa, err := spectest.BackendParams(s, "atomic", spec.Params{spec.ParamCrashes: g.crashes})
		if err != nil {
			t.Fatalf("BackendParams(registers, atomic): %v", err)
		}
		if sa := exhaust(t, s, pa); sa.Runs != st.Runs || sa.MaxDepth != st.MaxDepth {
			t.Errorf("registers backend=atomic crashes=%d: %d runs depth %d, want the default cell's %d/%d",
				g.crashes, sa.Runs, sa.MaxDepth, st.Runs, st.MaxDepth)
		}
	}
}

// TestRegularOnlyWitness is obligation 2: found, replayed, minimized. The
// monotonic-reader cell registers n=1 writes=1 readers=1 is clean under
// atomic and tso but violable under regular, where the reader can land its
// two reads inside the write's flicker window (new exposed, then the old
// value flicked back).
func TestRegularOnlyWitness(t *testing.T) {
	s := mustLookup(t, "registers")
	cell := spec.Params{"n": 1, "writes": 1, "readers": 1}

	for _, backend := range []string{"atomic", "tso"} {
		p, err := spectest.BackendParams(s, backend, cell.Clone())
		if err != nil {
			t.Fatalf("BackendParams(registers, %s): %v", backend, err)
		}
		exhaust(t, s, p)
	}

	p, err := spectest.BackendParams(s, "regular", cell.Clone())
	if err != nil {
		t.Fatalf("BackendParams(registers, regular): %v", err)
	}
	pe := violate(t, s, p)
	if !errors.Is(pe.Err, sessions.ErrNonMonotonicRead) {
		t.Fatalf("regular cell violated with %v, want ErrNonMonotonicRead", pe.Err)
	}

	// Strict replay: the engine's script is a verbatim schedule of a fresh
	// session and reproduces the exact verdict.
	strict := s.New(p)
	res, err := spectest.ReplayScript(strict, pe.Script, 0)
	if err != nil {
		t.Fatalf("strict replay of the witness: %v", err)
	}
	if cerr := strict.Check(res); !errors.Is(cerr, sessions.ErrNonMonotonicRead) {
		t.Fatalf("strict replay verdict = %v, want ErrNonMonotonicRead", cerr)
	}

	// Minimize: the violation needs exactly six decisions — start the
	// writer and expose the write, start the reader and take the first
	// read (new), flick the old value back, take the second read (old);
	// the commit and the decides complete by default.
	matches := func(err error) bool { return errors.Is(err, sessions.ErrNonMonotonicRead) }
	min, err := spectest.MinimizeScript(s.New(p), pe.Script, 0, matches)
	if err != nil {
		t.Fatalf("MinimizeScript: %v", err)
	}
	if len(min) >= len(pe.Script) {
		t.Errorf("minimizer kept %d of %d lines, want a strict shrink", len(min), len(pe.Script))
	}
	if len(min) > 6 {
		t.Errorf("minimized witness has %d lines, want <= 6:\n%v", len(min), min)
	}
	loose := s.New(p)
	lres, err := spectest.ReplayLoose(loose, min, 0)
	if err != nil {
		t.Fatalf("loose replay of the minimum: %v", err)
	}
	if cerr := loose.Check(lres); !errors.Is(cerr, sessions.ErrNonMonotonicRead) {
		t.Fatalf("minimized witness replays to %v, want ErrNonMonotonicRead", cerr)
	}
}

// TestStoreBufferDifferential is obligation 3: the SB litmus splits the
// backend domain the other way — atomic AND regular forbid the (0,0)
// outcome (regular weakens concurrent reads, not store→load order), tso
// reaches it, and the tso witness replays strictly and minimizes.
func TestStoreBufferDifferential(t *testing.T) {
	s := mustLookup(t, "sb")

	for _, backend := range []string{"atomic", "regular"} {
		p, err := spectest.BackendParams(s, backend, nil)
		if err != nil {
			t.Fatalf("BackendParams(sb, %s): %v", backend, err)
		}
		exhaust(t, s, p)
	}

	p, err := spectest.BackendParams(s, "tso", nil)
	if err != nil {
		t.Fatalf("BackendParams(sb, tso): %v", err)
	}
	pe := violate(t, s, p)
	if !errors.Is(pe.Err, sessions.ErrStoreLoadReordered) {
		t.Fatalf("sb backend=tso violated with %v, want ErrStoreLoadReordered", pe.Err)
	}
	sess := s.New(p)
	res, err := spectest.ReplayScript(sess, pe.Script, 0)
	if err != nil {
		t.Fatalf("strict replay of the sb tso witness: %v", err)
	}
	if cerr := sess.Check(res); !errors.Is(cerr, sessions.ErrStoreLoadReordered) {
		t.Fatalf("sb tso witness replays to %v, want ErrStoreLoadReordered", cerr)
	}
	matches := func(err error) bool { return errors.Is(err, sessions.ErrStoreLoadReordered) }
	min, err := spectest.MinimizeScript(s.New(p), pe.Script, 0, matches)
	if err != nil {
		t.Fatalf("MinimizeScript(sb tso): %v", err)
	}
	if len(min) >= len(pe.Script) {
		t.Errorf("sb minimizer kept %d of %d lines, want a strict shrink", len(min), len(pe.Script))
	}
}
