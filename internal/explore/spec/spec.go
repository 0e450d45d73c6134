// Package spec is the registry-driven model-spec API of the exhaustive
// explorer: every checkable scenario — an agreement object, a simulation, a
// Herlihy-hierarchy object under a safety property — is a self-describing
// Spec with typed parameter domains, and every consumer (cmd/explore, the
// exploredd daemon, the E16 experiment rows, the spectest conformance
// suite, the bench module) resolves scenarios exclusively through the
// package-level registry.
//
// A scenario is one Decl passed to Register, typically from an init func of
// the package that implements its harness:
//
//	spec.Register(spec.Decl{
//	        Name: "testandset",
//	        Doc:  "one-shot test&set: winner uniqueness on every schedule",
//	        Params: []spec.Param{
//	                {Name: "n", Doc: "competing processes", Default: 3, Min: 1, Max: spec.NoMax},
//	        },
//	        New:   func(p spec.Params) explore.Session { ... },
//	        Dedup: true, Prune: true,
//	})
//
// Consumers look scenarios up by name (Lookup) or enumerate them (All),
// expand user-supplied value grids against the declared domains (Grid),
// and run them (Factory + Config feed explore.ExploreContext, and Factory
// sample.RunContext). The spectest package holds the conformance suite
// every registered spec must pass.
package spec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mpcn/internal/explore"
)

// NoMax marks a Param with no static upper bound (the practical bound is the
// exploration blow-up, not the domain).
const NoMax = math.MaxInt

// Names of the two engine-level parameters every registered spec declares
// automatically (unless its Decl overrides them with tighter domains): they
// bound the exploration rather than configure the object, and Config
// extracts them into explore.Config.
const (
	ParamCrashes = "crashes" // explore.Config.MaxCrashes
	ParamSteps   = "steps"   // explore.Config.MaxSteps; 0 = engine default
)

// Param is one parameter domain of a Spec: its name, a one-line doc, the
// default value, and the inclusive valid range. A Param with a non-empty
// Values list is a string-domain (enum) parameter: its integer value indexes
// Values, Register derives Min=0 and Max=len(Values)-1, and consumers parse
// and render the symbolic names (TextGrid, ValueName).
type Param struct {
	Name    string
	Doc     string
	Default int
	Min     int
	Max     int // NoMax = no static upper bound
	// Values, when non-empty, declares a string domain: the parameter's
	// integer value is an index into Values. Names must be unique, non-empty
	// and free of the separators CLI grids split on (commas, '=', spaces).
	Values []string
}

// Enum reports whether p is a string-domain parameter.
func (p Param) Enum() bool { return len(p.Values) > 0 }

// Range renders the valid domain for -list output: "1..8"/"1..∞" for integer
// params, "atomic|regular|tso" for string-domain ones.
func (p Param) Range() string {
	if p.Enum() {
		return strings.Join(p.Values, "|")
	}
	if p.Max == NoMax {
		return fmt.Sprintf("%d..∞", p.Min)
	}
	return fmt.Sprintf("%d..%d", p.Min, p.Max)
}

// ValueIndex resolves a symbolic value name of a string-domain parameter to
// its integer encoding. It reports false for unknown names and for integer
// params (which have no names to resolve).
func (p Param) ValueIndex(name string) (int, bool) {
	for i, v := range p.Values {
		if v == name {
			return i, true
		}
	}
	return 0, false
}

// ValueName renders v the way a user passes it: the symbolic name for
// in-domain values of a string-domain parameter, the decimal literal
// otherwise.
func (p Param) ValueName(v int) string {
	if p.Enum() && v >= 0 && v < len(p.Values) {
		return p.Values[v]
	}
	return strconv.Itoa(v)
}

// Params is a resolved parameter assignment, name → value. Resolve fills
// defaults and validates domains; Spec.New requires a resolved assignment.
type Params map[string]int

// Clone returns a copy of p.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// String renders the assignment canonically, sorted by name.
func (p Params) String() string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%d", k, p[k])
	}
	return strings.Join(parts, " ")
}

// Text renders the assignment like String but with string-domain values of s
// shown by their declared names ("backend=regular", not "backend=1") — the
// exact form the CLI accepts back through -set.
func (p Params) Text(s Spec) string {
	byName := make(map[string]Param)
	for _, d := range s.Params() {
		byName[d.Name] = d
	}
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%s", k, byName[k].ValueName(p[k]))
	}
	return strings.Join(parts, " ")
}

// Sampling is a spec's schedule-sampling declaration. Every registered spec
// is sampleable — the sampling engine (internal/explore/sample) needs
// nothing beyond Make and Check — so the declaration does not gate the
// capability; it tunes the budgets consumers apply to bounded sampling runs
// (`cmd/explore -allspecs`, the spectest fold-equivalence coverage pass,
// the sample-smoke CI cells). Zero values defer to consumer/engine defaults.
type Sampling struct {
	// Budget is the spec's default sample count for bounded sampling runs
	// (0 = consumer default). Specs with huge per-run step counts (the BG
	// simulation) declare smaller budgets so smokes stay fast.
	Budget int
	// Depth is the spec's default PCT depth d — d-1 priority-change points
	// per run (0 = engine default). Deep scenarios declare larger depths so
	// the change points spread across their longer runs.
	Depth int
}

// Spec is a registered scenario: a harness (process bodies + property
// checker + optional state fingerprint) over a declared parameter domain.
// Register builds it from a Decl; Lookup and All return it, nil standing
// for no scenario.
type Spec = *Scenario

// Scenario is what a Spec points to: a validated Decl with its parameter
// list completed by the engine params.
type Scenario struct {
	d      Decl
	params []Param // Decl.Params + engine params, sorted by name
}

// Name is the registry key, a short lowercase identifier.
func (s *Scenario) Name() string { return s.d.Name }

// Doc is the one-line description (-list, experiment rows).
func (s *Scenario) Doc() string { return s.d.Doc }

// Params declares the parameter domains, including the engine-level
// crashes/steps params, sorted by name. The slice is a copy.
func (s *Scenario) Params() []Param { return append([]Param(nil), s.params...) }

// New builds a fresh, worker-private exploration harness for a resolved
// parameter assignment. Callers must resolve p first (Resolve or Grid); New
// may panic on unresolved or out-of-domain assignments.
func (s *Scenario) New(p Params) explore.Session { return s.d.New(p) }

// SupportsDedup reports whether New's sessions carry a Fingerprint, i.e.
// whether explore.Config.Dedup is usable.
func (s *Scenario) SupportsDedup() bool { return s.d.Dedup }

// SupportsPrune reports whether the checker is insensitive to the order of
// commuting operations, i.e. whether explore.Config.Prune is sound.
func (s *Scenario) SupportsPrune() bool { return s.d.Prune }

// SupportsSymmetry reports whether New's sessions declare process-
// permutation symmetry (explore.Session.Symmetric), i.e. whether
// explore.Config.Symmetry is sound. Implies SupportsDedup: symmetry
// reduction acts only through the visited-state store.
func (s *Scenario) SupportsSymmetry() bool { return s.d.Symmetry }

// Sampling returns the spec's schedule-sampling budget declaration.
func (s *Scenario) Sampling() Sampling { return s.d.Sampling }

// Unbounded reports whether a spec declares that its decision tree cannot
// be exhausted at any feasible run budget (Decl.Unbounded — the BG
// simulation). Consumers use it to select bounded-smoke mode (cap MaxRuns,
// accept exhausted=false) instead of special-casing spec names.
func Unbounded(s Spec) bool { return s.d.Unbounded }

// Decl declares a Spec for Register. Name, Doc and New are required; Params
// lists the object-level domains (the crashes/steps engine params are
// appended automatically when absent); Validate adds cross-parameter
// constraints (e.g. x <= n); Dedup/Prune are the capability flags surfaced
// as SupportsDedup/SupportsPrune.
type Decl struct {
	Name     string
	Doc      string
	Params   []Param
	New      func(p Params) explore.Session
	Validate func(p Params) error
	Dedup    bool
	Prune    bool
	// Symmetry is the SupportsSymmetry capability flag: New's sessions
	// declare explore.Session.Symmetric (bodies identical up to Canon-erased
	// values, per-process state folded through FP.Lane, permutation-invariant
	// checker). Requires Dedup.
	Symmetry bool
	// Unbounded marks scenarios whose full decision tree no feasible run
	// budget can exhaust (the BG simulation): consumers run them as bounded
	// smokes and accept exhausted=false. See the package-level Unbounded.
	Unbounded bool
	// Sampling declares the spec's schedule-sampling budgets (zero values
	// defer to consumer/engine defaults; negative values are rejected).
	Sampling Sampling
}

// newScenario validates d and completes its parameter list.
func newScenario(d Decl) (Spec, error) {
	if d.Name == "" {
		return nil, fmt.Errorf("spec: Decl without a Name")
	}
	if d.New == nil {
		return nil, fmt.Errorf("spec %q: Decl without a New", d.Name)
	}
	if d.Doc == "" {
		return nil, fmt.Errorf("spec %q: Decl without a Doc line", d.Name)
	}
	if d.Sampling.Budget < 0 || d.Sampling.Depth < 0 {
		return nil, fmt.Errorf("spec %q: negative sampling declaration %+v", d.Name, d.Sampling)
	}
	if d.Symmetry && !d.Dedup {
		return nil, fmt.Errorf("spec %q: Symmetry requires Dedup (the reduction acts through the visited store)", d.Name)
	}
	params := append([]Param(nil), d.Params...)
	have := make(map[string]bool, len(params)+2)
	for i, p := range params {
		if have[p.Name] {
			return nil, fmt.Errorf("spec %q: duplicate param %q", d.Name, p.Name)
		}
		have[p.Name] = true
		if p.Enum() {
			seen := make(map[string]bool, len(p.Values))
			for _, v := range p.Values {
				if v == "" || strings.ContainsAny(v, ", =") {
					return nil, fmt.Errorf("spec %q: param %q has malformed value name %q", d.Name, p.Name, v)
				}
				if seen[v] {
					return nil, fmt.Errorf("spec %q: param %q has duplicate value name %q", d.Name, p.Name, v)
				}
				seen[v] = true
			}
			// The integer domain of a string-domain param is derived, never
			// author-declared: values index the name list.
			params[i].Min, params[i].Max = 0, len(p.Values)-1
		}
	}
	if !have[ParamCrashes] {
		params = append(params, Param{
			Name: ParamCrashes, Doc: "max crashes injected per run",
			Default: 0, Min: 0, Max: NoMax,
		})
	}
	if !have[ParamSteps] {
		params = append(params, Param{
			Name: ParamSteps, Doc: "per-run step budget (0 = engine default)",
			Default: 0, Min: 0, Max: NoMax,
		})
	}
	for _, p := range params {
		if p.Min > p.Max {
			return nil, fmt.Errorf("spec %q: param %q has empty range %s", d.Name, p.Name, p.Range())
		}
		if p.Default < p.Min || p.Default > p.Max {
			return nil, fmt.Errorf("spec %q: param %q default %d outside %s", d.Name, p.Name, p.Default, p.Range())
		}
	}
	sort.Slice(params, func(i, j int) bool { return params[i].Name < params[j].Name })
	return &Scenario{d: d, params: params}, nil
}

// ParamError describes a rejected parameter assignment: which spec, which
// parameter, and — so consumers can print actionable help instead of a bare
// rejection — the offending parameter's declared domain (or, for unknown
// names, every domain the spec does declare). Resolve and Grid return it for
// both failure modes; cmd/explore renders the domains on stderr.
type ParamError struct {
	// Spec is the spec's registry name; Param the offending parameter name;
	// Value the rejected value (meaningless when Unknown).
	Spec  string
	Param string
	Value int
	// Unknown reports that the spec declares no parameter of that name; Decl
	// is then zero. Otherwise Decl is the violated declaration.
	Unknown bool
	Decl    Param
	// ValueName is the rejected symbolic value of a string-domain parameter
	// (TextGrid resolution failure); when non-empty the error lists the
	// declared value names instead of an integer range.
	ValueName string
	// Declared holds the spec's full parameter declarations, name-sorted.
	Declared []Param
}

// Error implements error.
func (e *ParamError) Error() string {
	if e.Unknown {
		names := make([]string, len(e.Declared))
		for i, d := range e.Declared {
			names[i] = d.Name
		}
		return fmt.Sprintf("spec %q has no parameter %q (parameters: %s)",
			e.Spec, e.Param, strings.Join(names, ", "))
	}
	if e.ValueName != "" {
		return fmt.Sprintf("spec %q: param %s has no value %q (valid: %s) (%s)",
			e.Spec, e.Param, e.ValueName, e.Decl.Range(), e.Decl.Doc)
	}
	return fmt.Sprintf("spec %q: param %s=%s outside %s (%s)",
		e.Spec, e.Param, e.Decl.ValueName(e.Value), e.Decl.Range(), e.Decl.Doc)
}

// Resolve completes and validates a parameter assignment against s's
// declared domains: absent params take their defaults, unknown names and
// out-of-range values fail with a *ParamError naming the offending
// parameter and its declared domain, and the spec's cross-parameter
// Decl.Validate (if any) runs last. The input map is not modified.
func Resolve(s Spec, p Params) (Params, error) {
	out := make(Params, len(p))
	decls := s.Params()
	declared := make(map[string]bool)
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := p[d.Name]
		if !ok {
			v = d.Default
		}
		if v < d.Min || v > d.Max {
			return nil, &ParamError{Spec: s.Name(), Param: d.Name, Value: v, Decl: d, Declared: decls}
		}
		out[d.Name] = v
	}
	for name := range p {
		if !declared[name] {
			return nil, &ParamError{Spec: s.Name(), Param: name, Unknown: true, Declared: decls}
		}
	}
	if s.d.Validate != nil {
		if err := s.d.Validate(out); err != nil {
			return nil, fmt.Errorf("spec %q: %w", s.Name(), err)
		}
	}
	return out, nil
}

// Grid expands per-parameter value lists into the cartesian product of
// resolved assignments: parameters absent from grids take their single
// default value, every assignment is validated via Resolve, and the cells
// come out in odometer order over the spec's (name-sorted) parameters.
func Grid(s Spec, grids map[string][]int) ([]Params, error) {
	declared := s.Params()
	have := make(map[string]bool, len(declared))
	for _, d := range declared {
		have[d.Name] = true
	}
	for name := range grids {
		if !have[name] {
			return nil, &ParamError{Spec: s.Name(), Param: name, Unknown: true, Declared: declared}
		}
	}
	cells := []Params{{}}
	for _, d := range declared {
		vals, ok := grids[d.Name]
		if !ok || len(vals) == 0 {
			vals = []int{d.Default}
		}
		next := make([]Params, 0, len(cells)*len(vals))
		for _, cell := range cells {
			for _, v := range vals {
				c := cell.Clone()
				c[d.Name] = v
				next = append(next, c)
			}
		}
		cells = next
	}
	out := make([]Params, 0, len(cells))
	for _, c := range cells {
		r, err := Resolve(s, c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// TextGrid converts raw textual per-parameter value lists (as split from CLI
// flags) into the integer grids Grid consumes. Values of integer params must
// parse as decimal integers; values of string-domain params are resolved by
// name against the declared Values — the names ARE the domain, so integer
// literals are rejected for them. Unknown parameter names and unknown value
// names fail with a *ParamError (the latter carries ValueName, so consumers
// print the valid names).
func TextGrid(s Spec, raw map[string][]string) (map[string][]int, error) {
	decls := s.Params()
	byName := make(map[string]Param, len(decls))
	for _, d := range decls {
		byName[d.Name] = d
	}
	out := make(map[string][]int, len(raw))
	for name, vals := range raw {
		d, ok := byName[name]
		if !ok {
			return nil, &ParamError{Spec: s.Name(), Param: name, Unknown: true, Declared: decls}
		}
		ints := make([]int, len(vals))
		for i, v := range vals {
			if d.Enum() {
				idx, ok := d.ValueIndex(v)
				if !ok {
					return nil, &ParamError{Spec: s.Name(), Param: name, ValueName: v, Decl: d, Declared: decls}
				}
				ints[i] = idx
				continue
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("spec %q: param %s: %q is not an integer (domain %s)",
					s.Name(), name, v, d.Range())
			}
			ints[i] = n
		}
		out[name] = ints
	}
	return out, nil
}

// Factory adapts a resolved assignment to the per-worker session factory the
// explore engines consume: every call of the returned func builds a fresh,
// worker-private harness via s.New.
func Factory(s Spec, p Params) func() explore.Session {
	return func() explore.Session { return s.New(p) }
}

// Config folds the engine-level params of a resolved assignment into base
// (crashes → MaxCrashes, steps → MaxSteps when non-zero) and enforces the
// capability flags, the one capability check of every exhaustive job:
// requesting Prune from a spec that does not declare it fails up front,
// requesting Dedup from a spec without a fingerprint fails with
// explore.ErrNoFingerprint tagged with the spec name, and requesting
// Symmetry from a spec without the capability (or without Dedup alongside)
// fails with explore.ErrNoSymmetry / explore.ErrSymmetryNeedsDedup likewise.
func Config(s Spec, p Params, base explore.Config) (explore.Config, error) {
	base.MaxCrashes = p[ParamCrashes]
	if v := p[ParamSteps]; v > 0 {
		base.MaxSteps = v
	}
	if base.Prune && !s.SupportsPrune() {
		return base, fmt.Errorf("spec %q does not support partial-order reduction", s.Name())
	}
	if base.Symmetry {
		if !s.SupportsSymmetry() {
			return base, fmt.Errorf("spec %q: %w", s.Name(), explore.ErrNoSymmetry)
		}
		if !base.Dedup {
			return base, fmt.Errorf("spec %q: %w", s.Name(), explore.ErrSymmetryNeedsDedup)
		}
	}
	if base.Dedup && !s.SupportsDedup() {
		return base, fmt.Errorf("spec %q: %w", s.Name(), explore.ErrNoFingerprint)
	}
	return base, nil
}
