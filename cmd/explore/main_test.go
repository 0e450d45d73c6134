package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/spec"
)

// TestSpecsExhaustTinyConfigs: a tiny configuration of every registry-backed
// CLI scenario exhausts without violations, end to end through run().
func TestSpecsExhaustTinyConfigs(t *testing.T) {
	cases := []struct {
		name string
		args string
	}{
		{"safe", "-object safe -n 2 -workers 2"},
		{"safe crash", "-object safe -n 2 -crashes 1 -workers 2"},
		{"xsafe", "-object xsafe -n 2 -x 2 -prune -workers 2"},
		{"commitadopt", "-object commitadopt -n 2 -crashes 1 -workers 2"},
		{"registers pruned", "-object registers -n 3 -set writes=2 -prune -workers 2"},
		{"testandset dedup", "-object testandset -n 3 -crashes 1 -dedup -workers 2"},
		{"queue", "-object queue -n 3 -set ops=1 -dedup -workers 2"},
		{"xcompete", "-object xcompete -n 3 -x 2 -crashes 1 -workers 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if code := run(strings.Fields(tc.args), &out); code != 0 {
				t.Fatalf("exit code %d\n%s", code, out.String())
			}
			if !strings.Contains(out.String(), "EXHAUSTED") {
				t.Fatalf("no EXHAUSTED verdict in:\n%s", out.String())
			}
		})
	}
}

// TestBGSessionBoundedSmoke: the BG simulation tree is explored under a
// -maxruns bound and reports partial coverage — the CI-safe smoke mode.
func TestBGSessionBoundedSmoke(t *testing.T) {
	var out bytes.Buffer
	code := run(strings.Fields("-object bg -n 2 -t 1 -steps 400 -maxruns 200 -workers 2"), &out)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "partial (bounded)") {
		t.Fatalf("a 200-run bound cannot exhaust the BG tree:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "       200 ") {
		t.Fatalf("runs != the 200-run bound:\n%s", out.String())
	}
}

// TestInvalidConfigurationsRejected: parameter values outside the declared
// domains (and unknown specs/parameters) fail before any exploration runs.
func TestInvalidConfigurationsRejected(t *testing.T) {
	cases := []struct {
		name string
		args string
	}{
		{"unknown object", "-object nope"},
		{"xsafe x>n", "-object xsafe -n 2 -x 5"},
		{"xsafe x<1", "-object xsafe -x 0"},
		{"bg t>=n", "-object bg -n 2 -t 2"},
		{"n<1", "-object safe -n 0"},
		{"undeclared param", "-object safe -t 1"},
		{"undeclared set param", "-object safe -set bogus=1"},
		{"xconsensus n>x", "-object xconsensus -n 3 -x 2"},
		{"dedupmem overflows int", "-object commitadopt -dedup -dedupmem 8796093022208"},
		{"negative dedupmem", "-object commitadopt -dedup -dedupmem -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := run(strings.Fields(tc.args), io.Discard); code == 0 {
				t.Fatalf("%q accepted", tc.args)
			}
		})
	}
}

// TestUnknownSpecErrorListsAvailable: the Lookup failure surfaced to the
// user names the registered alternatives.
func TestUnknownSpecErrorListsAvailable(t *testing.T) {
	_, err := spec.Lookup("nope")
	if err == nil {
		t.Fatal("unknown spec accepted")
	}
	for _, want := range []string{"available:", "safe", "queue", "bg"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// TestDedupOnFingerprintlessSpecRejected: -dedup against the BG spec (no
// fingerprint) fails up front with the spec-tagged ErrNoFingerprint.
func TestDedupOnFingerprintlessSpecRejected(t *testing.T) {
	err := sweep(context.Background(), options{object: "bg", grids: map[string][]string{}, dedup: true, maxRuns: 10}, io.Discard)
	if err == nil {
		t.Fatal("dedup accepted on a fingerprint-less spec")
	}
	for _, want := range []string{`"bg"`, "Fingerprint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if code := run(strings.Fields("-object bg -dedup -maxruns 10"), io.Discard); code == 0 {
		t.Fatal("run() must propagate the dedup rejection")
	}
}

// TestSymmetryOnNonCapableSpecRejected: -symmetry against a spec that does
// not declare the capability fails up front with the spec-tagged
// ErrNoSymmetry — the same loud-rejection pattern as -dedup on a
// fingerprint-less spec.
func TestSymmetryOnNonCapableSpecRejected(t *testing.T) {
	err := sweep(context.Background(), options{object: "safe", grids: map[string][]string{}, dedup: true, symmetry: true, maxRuns: 10}, io.Discard)
	if err == nil {
		t.Fatal("symmetry accepted on a non-capable spec")
	}
	if !errors.Is(err, explore.ErrNoSymmetry) {
		t.Errorf("err = %v, want ErrNoSymmetry", err)
	}
	if !strings.Contains(err.Error(), `"safe"`) {
		t.Errorf("error %q does not name the spec", err)
	}
	if code := run(strings.Fields("-object safe -dedup -symmetry -maxruns 10"), io.Discard); code == 0 {
		t.Fatal("run() must propagate the symmetry rejection")
	}
}

// TestSymmetryWithoutDedupRejected: symmetry reduction acts through the
// visited store, so -symmetry without -dedup is rejected even on capable
// specs.
func TestSymmetryWithoutDedupRejected(t *testing.T) {
	err := sweep(context.Background(), options{object: "commitadopt", grids: map[string][]string{}, symmetry: true, maxRuns: 10}, io.Discard)
	if !errors.Is(err, explore.ErrSymmetryNeedsDedup) {
		t.Fatalf("err = %v, want ErrSymmetryNeedsDedup", err)
	}
	if code := run(strings.Fields("-object commitadopt -symmetry -maxruns 10"), io.Discard); code == 0 {
		t.Fatal("run() must propagate the symmetry-without-dedup rejection")
	}
}

// TestSymmetrySweepEndToEnd: a symmetric cell exhausts under -dedup
// -symmetry through run(), and -list advertises the capability.
func TestSymmetrySweepEndToEnd(t *testing.T) {
	var out bytes.Buffer
	if code := run(strings.Fields("-object commitadopt -n 3 -dedup -symmetry -workers 2"), &out); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "EXHAUSTED") {
		t.Fatalf("no EXHAUSTED verdict in:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-list"}, &out); code != 0 {
		t.Fatalf("-list exit code %d", code)
	}
	if !strings.Contains(out.String(), "supports: prune, dedup, symmetry") {
		t.Fatalf("-list does not advertise the symmetry capability:\n%s", out.String())
	}
}

func TestAddGrid(t *testing.T) {
	grids := map[string][]string{}
	if err := addGrid(grids, "n", "1, 2,3"); err != nil {
		t.Fatalf("addGrid: %v", err)
	}
	if got := grids["n"]; len(got) != 3 || got[0] != "1" || got[2] != "3" {
		t.Fatalf("addGrid collected %v", got)
	}
	if err := addGrid(grids, "n", "4"); err == nil {
		t.Fatal("duplicate parameter accepted")
	}
	if err := addGrid(grids, "x", "1,,2"); err == nil {
		t.Fatal("empty grid value accepted")
	}
	// Value resolution happens against the selected spec's declared domains:
	// integer params reject non-numeric text there, not at collection time.
	s, err := spec.Lookup("registers")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resolveGrid(s, map[string][]string{"n": {"x"}}); err == nil {
		t.Fatal("non-integer value for an integer param accepted")
	}
}

// TestEnumParamCLI: string-domain parameters resolve by name through the
// whole CLI path — -set backend=regular explores the weak cell, the cell
// label echoes the symbolic name, unknown value names are rejected with the
// declared domain, and integer literals are not part of an enum's domain.
func TestEnumParamCLI(t *testing.T) {
	var out bytes.Buffer
	if code := run(strings.Fields("-object registers -n 2 -set backend=tso -crashes 1 -workers 2"), &out); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	for _, want := range []string{"EXHAUSTED", "backend=tso"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	// The weak litmus cells genuinely violate: sb under a weak backend must
	// exit non-zero — the CLI face of the differential battery.
	if code := run(strings.Fields("-object sb -set backend=tso -workers 2"), io.Discard); code == 0 {
		t.Fatal("sb under tso exhausted without finding the store-buffering outcome")
	}

	s, err := spec.Lookup("registers")
	if err != nil {
		t.Fatal(err)
	}
	_, err = resolveGrid(s, map[string][]string{"backend": {"sequential"}})
	var pe *spec.ParamError
	if !errors.As(err, &pe) || pe.ValueName != "sequential" {
		t.Fatalf("unknown backend name: err = %v", err)
	}
	for _, want := range []string{"sequential", "atomic|regular|tso"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if code := run(strings.Fields("-object registers -set backend=sequential"), io.Discard); code == 0 {
		t.Fatal("unknown backend name accepted")
	}
	if _, err := resolveGrid(s, map[string][]string{"backend": {"1"}}); err == nil {
		t.Fatal("integer literal accepted for a string-domain param")
	}
}

func TestRunSweepEndToEnd(t *testing.T) {
	code := run(strings.Fields("-object commitadopt -n 2 -crashes 0,1 -prune -compare -workers 2"), io.Discard)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if code := run(strings.Fields("-object nope"), io.Discard); code == 0 {
		t.Fatal("unknown object must exit non-zero")
	}
	if code := run(strings.Fields("-n bogus"), io.Discard); code == 0 {
		t.Fatal("bad grid must exit non-zero")
	}
	if code := run(strings.Fields("-set bogus"), io.Discard); code == 0 {
		t.Fatal("malformed -set must exit non-zero")
	}
}

// TestSampleSweep: -sample runs the probabilistic engine per grid cell and
// reports samples, distinct-state coverage and throughput; the PCT variant
// also surfaces the depth-d bound.
func TestSampleSweep(t *testing.T) {
	cases := []struct {
		name string
		args string
		want []string
	}{
		{"pct", "-object commitadopt -n 2 -crashes 1 -sample pct -samples 200 -seed 7 -workers 2",
			[]string{"SAMPLED", "bug bound >=", "       200 "}},
		{"walk seq", "-object safe -n 2 -sample walk -samples 100 -workers 1",
			[]string{"SAMPLED"}},
		{"swarm on bg", "-object bg -n 2 -t 1 -steps 300 -sample swarm -samples 50 -workers 2",
			[]string{"SAMPLED", "        50 "}},
		{"allspecs", "-sample pct -allspecs -samples 30 -workers 2",
			[]string{"bg ", "commitadopt ", "xsafe ", "SAMPLED"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if code := run(strings.Fields(tc.args), &out); code != 0 {
				t.Fatalf("exit code %d\n%s", code, out.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestSampleRejectsBadConfigs: unknown strategies, -allspecs without
// -sample, and flag combinations one engine would silently ignore all exit
// non-zero before any run — a bound or grid the user asked for either
// applies or is rejected, never dropped.
func TestSampleRejectsBadConfigs(t *testing.T) {
	for _, args := range []string{
		"-object safe -sample annealing -samples 10",
		"-allspecs",
		"-object safe -sample walk -samples 0",
		"-object safe -sample walk -dedup",           // exhaustive-only flag under -sample
		"-object commitadopt -sample walk -symmetry", // exhaustive-only flag under -sample
		"-object safe -sample pct -maxruns 100",      // exhaustive-only bound under -sample
		"-object safe -sample pct -compare",          // exhaustive-only check under -sample
		"-object safe -samples 100",                  // sampling-only flag without -sample
		"-object safe -seed 3",                       // sampling-only flag without -sample
		"-sample pct -allspecs -object safe",         // -allspecs with explicit spec
		"-sample pct -allspecs -crashes 1",           // -allspecs with a grid flag
		"-sample pct -allspecs -set writes=2",        // -allspecs with -set
	} {
		if code := run(strings.Fields(args), io.Discard); code == 0 {
			t.Errorf("%q accepted", args)
		}
	}
}

// TestParamErrorPrintsDomain: a rejected parameter names the offending
// parameter and renders its declared domain (for unknown names: every
// declared domain) — the fix for rejections that lost which param failed.
func TestParamErrorPrintsDomain(t *testing.T) {
	s, err := spec.Lookup("xsafe")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Resolve(s, spec.Params{"x": 0}); err != nil {
		var pe *spec.ParamError
		if !errors.As(err, &pe) || pe.Param != "x" || pe.Unknown || pe.Decl.Doc == "" {
			t.Fatalf("out-of-range rejection lost its parameter: %#v (%v)", pe, err)
		}
		for _, want := range []string{`"xsafe"`, "x=0", "outside", "1..", "consensus number"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q missing %q", err, want)
			}
		}
	} else {
		t.Fatal("x=0 accepted")
	}
	if _, err := spec.Grid(s, map[string][]int{"bogus": {1}}); err != nil {
		var pe *spec.ParamError
		if !errors.As(err, &pe) || !pe.Unknown || pe.Param != "bogus" || len(pe.Declared) == 0 {
			t.Fatalf("unknown-param rejection lost its parameter: %#v (%v)", pe, err)
		}
	} else {
		t.Fatal("bogus param accepted")
	}

	var buf bytes.Buffer
	printDomains(&buf, &spec.ParamError{
		Spec: "xsafe", Param: "x", Value: 0,
		Decl: spec.Param{Name: "x", Doc: "consensus number", Default: 1, Min: 1, Max: 8},
	})
	if !strings.Contains(buf.String(), "-set x=1  [1..8]  consensus number") {
		t.Errorf("domain rendering: %q", buf.String())
	}
	buf.Reset()
	printDomains(&buf, &spec.ParamError{
		Spec: "xsafe", Param: "bogus", Unknown: true,
		Declared: []spec.Param{{Name: "n", Doc: "population", Default: 2, Min: 1, Max: spec.NoMax}},
	})
	for _, want := range []string{"declared parameters of xsafe", "-set n=2"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("unknown-param rendering missing %q: %q", want, buf.String())
		}
	}
}

// TestListEnumeratesRegistry: -list prints every registered spec with its
// parameter domains, defaults, capability flags and doc line.
func TestListEnumeratesRegistry(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	text := out.String()
	for _, s := range spec.All() {
		if !strings.Contains(text, s.Name()+" — "+s.Doc()) {
			t.Errorf("-list missing spec %q with its doc line", s.Name())
		}
	}
	for _, want := range []string{
		"registered specs (",
		"supports: prune, dedup",        // every fingerprinted scenario
		"supports: prune\n",             // bg: no dedup
		"sampling: budget=1500 depth=8", // bg's declared sampling budgets
		"-set n=2  [1..∞]",              // a parameter domain with default and range
		"-set crashes=0",                // the auto-declared engine params
		"-set steps=0",
		// String-domain parameters render their default by name and their
		// domain as the value-name alternation.
		"-set backend=atomic  [atomic|regular|tso]",
		"-set base=tas  [tas|queue|cas]",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("-list output missing %q:\n%s", want, text)
		}
	}
	// The listing follows spec.All's deterministic name-sorted order.
	prev := -1
	for _, s := range spec.All() {
		at := strings.Index(text, "\n"+s.Name()+" — ")
		if at < 0 {
			t.Errorf("-list missing header line for %q", s.Name())
			continue
		}
		if at < prev {
			t.Errorf("-list out of order at %q", s.Name())
		}
		prev = at
	}
}

// TestSpecAllDeterministicOrder: the registry enumerates name-sorted, and
// repeated calls agree — the ordering contract -list, -allspecs sweeps and
// the spectest conformance suite rely on.
func TestSpecAllDeterministicOrder(t *testing.T) {
	a, b := spec.All(), spec.All()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("spec.All lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name() != b[i].Name() {
			t.Fatalf("order diverges at %d: %q vs %q", i, a[i].Name(), b[i].Name())
		}
		if i > 0 && a[i-1].Name() >= a[i].Name() {
			t.Fatalf("not strictly name-sorted: %q before %q", a[i-1].Name(), a[i].Name())
		}
	}
}
