package spec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mpcn/internal/explore"
)

// testDecl returns a minimal valid Decl; mut customizes it.
func testDecl(name string, mut func(*Decl)) Decl {
	d := Decl{
		Name: name,
		Doc:  "test scenario",
		Params: []Param{
			{Name: "n", Doc: "processes", Default: 2, Min: 1, Max: NoMax},
			{Name: "x", Doc: "consensus number", Default: 1, Min: 1, Max: 8},
		},
		New:   func(p Params) explore.Session { return explore.Session{} },
		Dedup: true,
	}
	if mut != nil {
		mut(&d)
	}
	return d
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

func TestRegisterLookupAll(t *testing.T) {
	Register(testDecl("zz-roundtrip", nil))
	Register(testDecl("aa-roundtrip", nil))

	s, err := Lookup("zz-roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "zz-roundtrip" || s.Doc() != "test scenario" {
		t.Fatalf("Name/Doc = %q/%q", s.Name(), s.Doc())
	}
	if !s.SupportsDedup() {
		t.Fatal("capability flags lost in registration")
	}

	// Params: declared + auto-appended engine params, sorted by name.
	ps := s.Params()
	var names []string
	for _, p := range ps {
		names = append(names, p.Name)
	}
	if got, want := strings.Join(names, ","), "crashes,n,steps,x"; got != want {
		t.Fatalf("params = %s, want %s", got, want)
	}

	all := All()
	idx := make(map[string]int)
	for i, sp := range all {
		idx[sp.Name()] = i
	}
	if _, ok := idx["aa-roundtrip"]; !ok {
		t.Fatal("All() missing aa-roundtrip")
	}
	if idx["aa-roundtrip"] > idx["zz-roundtrip"] {
		t.Fatal("All() not sorted by name")
	}
}

func TestLookupUnknownNamesAvailable(t *testing.T) {
	Register(testDecl("known-for-lookup", nil))
	_, err := Lookup("no-such-spec")
	if !errors.Is(err, ErrUnknownSpec) {
		t.Fatalf("err = %v, want ErrUnknownSpec", err)
	}
	for _, want := range []string{`"no-such-spec"`, "available:", "known-for-lookup"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	Register(testDecl("dup-spec", nil))
	mustPanic(t, `duplicate registration of "dup-spec"`, func() {
		Register(testDecl("dup-spec", nil))
	})
}

func TestMalformedDeclPanics(t *testing.T) {
	cases := []struct {
		want string
		mut  func(*Decl)
	}{
		{"without a Name", func(d *Decl) { d.Name = "" }},
		{"without a New", func(d *Decl) { d.New = nil }},
		{"without a Doc", func(d *Decl) { d.Doc = "" }},
		{"duplicate param", func(d *Decl) { d.Params = append(d.Params, Param{Name: "n", Min: 0, Max: 1}) }},
		{"empty range", func(d *Decl) { d.Params[0].Min = 5; d.Params[0].Max = 4; d.Params[0].Default = 5 }},
		{"outside", func(d *Decl) { d.Params[0].Default = 0 }},
		{"negative sampling", func(d *Decl) { d.Sampling.Budget = -1 }},
		{"negative sampling", func(d *Decl) { d.Sampling.Depth = -2 }},
	}
	for i, tc := range cases {
		mustPanic(t, tc.want, func() {
			Register(testDecl(fmt.Sprintf("malformed-%d", i), tc.mut))
		})
	}
}

func TestResolveDefaultsAndRanges(t *testing.T) {
	Register(testDecl("resolve-spec", func(d *Decl) {
		d.Validate = func(p Params) error {
			if p["x"] > p["n"] {
				return fmt.Errorf("need x <= n, got x=%d n=%d", p["x"], p["n"])
			}
			return nil
		}
	}))
	s, _ := Lookup("resolve-spec")

	p, err := Resolve(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p["n"] != 2 || p["x"] != 1 || p["crashes"] != 0 || p["steps"] != 0 {
		t.Fatalf("defaults = %v", p)
	}

	if _, err := Resolve(s, Params{"n": 0}); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("below-range accepted: %v", err)
	}
	if _, err := Resolve(s, Params{"x": 9}); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("above-range accepted: %v", err)
	}
	if _, err := Resolve(s, Params{"bogus": 1}); err == nil || !strings.Contains(err.Error(), `no parameter "bogus"`) ||
		!strings.Contains(err.Error(), "crashes, n, steps, x") {
		t.Fatalf("unknown param error should list the declared names: %v", err)
	}
	if _, err := Resolve(s, Params{"n": 2, "x": 4}); err == nil || !strings.Contains(err.Error(), "x <= n") {
		t.Fatalf("cross-param Validate not applied: %v", err)
	}
	// Resolve must not mutate its input.
	in := Params{"n": 3}
	if _, err := Resolve(s, in); err != nil || len(in) != 1 {
		t.Fatalf("input mutated: %v (err %v)", in, err)
	}
}

func TestGridCartesianProduct(t *testing.T) {
	Register(testDecl("grid-spec", nil))
	s, _ := Lookup("grid-spec")

	cells, err := Grid(s, map[string][]int{"n": {2, 3}, "crashes": {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	// Odometer order over name-sorted params: crashes varies slower than n.
	want := []string{
		"crashes=0 n=2 steps=0 x=1",
		"crashes=0 n=3 steps=0 x=1",
		"crashes=1 n=2 steps=0 x=1",
		"crashes=1 n=3 steps=0 x=1",
	}
	for i, c := range cells {
		if c.String() != want[i] {
			t.Errorf("cell %d = %q, want %q", i, c, want[i])
		}
	}

	if _, err := Grid(s, map[string][]int{"nope": {1}}); err == nil || !strings.Contains(err.Error(), `no parameter "nope"`) {
		t.Fatalf("unknown grid name accepted: %v", err)
	}
	if _, err := Grid(s, map[string][]int{"x": {0, 1}}); err == nil {
		t.Fatal("out-of-range grid value accepted")
	}
}

func TestConfigEngineParamsAndCapabilities(t *testing.T) {
	Register(testDecl("config-dedup-spec", nil))
	Register(testDecl("config-nodedup-spec", func(d *Decl) { d.Dedup = false }))

	s, _ := Lookup("config-dedup-spec")
	p, err := Resolve(s, Params{"crashes": 2, "steps": 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Config(s, p, explore.Config{MaxSteps: 128, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxCrashes != 2 || cfg.MaxSteps != 64 {
		t.Fatalf("cfg = %+v", cfg)
	}
	// steps=0 keeps the base budget.
	p0, _ := Resolve(s, nil)
	cfg, _ = Config(s, p0, explore.Config{MaxSteps: 128})
	if cfg.MaxSteps != 128 {
		t.Fatalf("steps=0 overrode the base budget: %+v", cfg)
	}

	// Dedup on a spec without a fingerprint: ErrNoFingerprint, tagged.
	ns, _ := Lookup("config-nodedup-spec")
	np, _ := Resolve(ns, nil)
	_, err = Config(ns, np, explore.Config{Dedup: true})
	if !errors.Is(err, explore.ErrNoFingerprint) {
		t.Fatalf("err = %v, want ErrNoFingerprint", err)
	}
	if !strings.Contains(err.Error(), `"config-nodedup-spec"`) {
		t.Fatalf("error %q is not tagged with the spec name", err)
	}
	if _, err := Config(ns, np, explore.Config{}); err != nil {
		t.Fatalf("dedup-off config rejected: %v", err)
	}
}

func TestSamplingDeclarationRoundTrip(t *testing.T) {
	Register(testDecl("sampling-spec", func(d *Decl) {
		d.Sampling = Sampling{Budget: 1234, Depth: 6}
	}))
	Register(testDecl("sampling-default-spec", nil))
	s, _ := Lookup("sampling-spec")
	if got := s.Sampling(); got.Budget != 1234 || got.Depth != 6 {
		t.Fatalf("Sampling() = %+v", got)
	}
	d, _ := Lookup("sampling-default-spec")
	if got := d.Sampling(); got != (Sampling{}) {
		t.Fatalf("undeclared Sampling() = %+v, want zero (consumer defaults)", got)
	}
}

// TestParamErrorsAreTyped: Resolve and Grid reject bad assignments with a
// *ParamError that names the offending parameter and carries its declared
// domain — what CLI consumers render as actionable help.
func TestParamErrorsAreTyped(t *testing.T) {
	Register(testDecl("paramerr-spec", nil))
	s, _ := Lookup("paramerr-spec")

	_, err := Resolve(s, Params{"x": 99})
	var pe *ParamError
	if !errors.As(err, &pe) {
		t.Fatalf("out-of-range error is not a ParamError: %v", err)
	}
	if pe.Spec != "paramerr-spec" || pe.Param != "x" || pe.Value != 99 || pe.Unknown {
		t.Fatalf("ParamError = %+v", pe)
	}
	if pe.Decl.Name != "x" || pe.Decl.Doc == "" || pe.Decl.Max != 8 {
		t.Fatalf("ParamError lost the declared domain: %+v", pe.Decl)
	}
	if msg := pe.Error(); !strings.Contains(msg, "x=99") || !strings.Contains(msg, "1..8") ||
		!strings.Contains(msg, "consensus number") {
		t.Fatalf("Error() lost the domain: %q", msg)
	}

	_, err = Grid(s, map[string][]int{"bogus": {1}})
	if !errors.As(err, &pe) || !pe.Unknown || pe.Param != "bogus" {
		t.Fatalf("unknown-param Grid error: %v", err)
	}
	if len(pe.Declared) != 4 { // n, x + auto crashes, steps
		t.Fatalf("Declared = %+v", pe.Declared)
	}
	if msg := pe.Error(); !strings.Contains(msg, `no parameter "bogus"`) ||
		!strings.Contains(msg, "crashes, n, steps, x") {
		t.Fatalf("Error() lost the alternatives: %q", msg)
	}
}

// TestEnumParams: string-domain params derive their integer domain from the
// declared value names, render the names in Range, and resolve user-supplied
// names through TextGrid — with a typed *ParamError (carrying ValueName and
// the declaration) for names outside the domain.
func TestEnumParams(t *testing.T) {
	Register(testDecl("enum-spec", func(d *Decl) {
		d.Params = append(d.Params, Param{
			Name: "backend", Doc: "register memory model", Default: 0,
			Values: []string{"atomic", "regular", "tso"},
		})
	}))
	s, _ := Lookup("enum-spec")

	var backend Param
	for _, p := range s.Params() {
		if p.Name == "backend" {
			backend = p
		}
	}
	if !backend.Enum() || backend.Min != 0 || backend.Max != 2 {
		t.Fatalf("derived enum domain wrong: %+v", backend)
	}
	if got := backend.Range(); got != "atomic|regular|tso" {
		t.Fatalf("Range() = %q", got)
	}
	if got := backend.ValueName(1); got != "regular" {
		t.Fatalf("ValueName(1) = %q", got)
	}
	if got := backend.ValueName(7); got != "7" {
		t.Fatalf("out-of-domain ValueName = %q", got)
	}

	// TextGrid: names resolve to indices, integer params still parse.
	grids, err := TextGrid(s, map[string][]string{
		"backend": {"regular", "atomic"},
		"n":       {"2", "3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := grids["backend"]; len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("backend grid = %v", got)
	}
	if got := grids["n"]; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("n grid = %v", got)
	}

	// Unknown value name: typed ParamError listing the valid backends.
	_, err = TextGrid(s, map[string][]string{"backend": {"sc"}})
	var pe *ParamError
	if !errors.As(err, &pe) || pe.Param != "backend" || pe.ValueName != "sc" || pe.Unknown {
		t.Fatalf("unknown value name error: %v (%#v)", err, pe)
	}
	for _, want := range []string{`"enum-spec"`, `no value "sc"`, "atomic|regular|tso", "memory model"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}

	// Integer literals are not names: rejected for string-domain params.
	if _, err := TextGrid(s, map[string][]string{"backend": {"1"}}); err == nil {
		t.Fatal("integer literal accepted for a string-domain param")
	}
	// Bad integer for a numeric param still fails.
	if _, err := TextGrid(s, map[string][]string{"n": {"bogus"}}); err == nil {
		t.Fatal("non-integer accepted for an integer param")
	}
	// Unknown param name: the existing Unknown ParamError shape.
	_, err = TextGrid(s, map[string][]string{"nope": {"1"}})
	if !errors.As(err, &pe) || !pe.Unknown || pe.Param != "nope" {
		t.Fatalf("unknown param error: %v", err)
	}

	// An out-of-range integer assignment of an enum param renders the names.
	if _, err := Resolve(s, Params{"backend": 9}); err == nil ||
		!strings.Contains(err.Error(), "backend=9 outside atomic|regular|tso") {
		t.Fatalf("out-of-range enum resolve: %v", err)
	}
}

func TestMalformedEnumDeclsPanic(t *testing.T) {
	cases := []struct {
		want string
		vals []string
	}{
		{"duplicate value name", []string{"a", "b", "a"}},
		{"malformed value name", []string{"a", ""}},
		{"malformed value name", []string{"a", "b,c"}},
		{"malformed value name", []string{"a=1"}},
	}
	for i, tc := range cases {
		mustPanic(t, tc.want, func() {
			Register(testDecl(fmt.Sprintf("malformed-enum-%d", i), func(d *Decl) {
				d.Params = append(d.Params, Param{Name: "e", Doc: "enum", Values: tc.vals})
			}))
		})
	}
}

func TestUnboundedCapability(t *testing.T) {
	Register(testDecl("bounded-spec", nil))
	Register(testDecl("unbounded-spec", func(d *Decl) { d.Unbounded = true }))
	b, _ := Lookup("bounded-spec")
	u, _ := Lookup("unbounded-spec")
	if Unbounded(b) {
		t.Error("bounded spec reports Unbounded")
	}
	if !Unbounded(u) {
		t.Error("unbounded declaration lost in registration")
	}
}

func TestFactoryBuildsFreshSessions(t *testing.T) {
	builds := 0
	Register(testDecl("factory-spec", func(d *Decl) {
		d.New = func(p Params) explore.Session {
			builds++
			if p["n"] == 0 {
				t.Error("Factory passed an unresolved assignment")
			}
			return explore.Session{}
		}
	}))
	s, _ := Lookup("factory-spec")
	p, _ := Resolve(s, nil)
	f := Factory(s, p)
	f()
	f()
	if builds != 2 {
		t.Fatalf("builds = %d, want one per factory call", builds)
	}
}
