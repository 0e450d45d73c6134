package spec

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"mpcn/internal/explore"
)

// jsonSpec registers a throwaway spec with one enum and one bounded integer
// param and returns it.
func jsonSpec(t *testing.T, name string) Spec {
	t.Helper()
	Register(Decl{
		Name: name,
		Doc:  "json projection fixture",
		Params: []Param{
			{Name: "n", Doc: "processes", Default: 2, Min: 1, Max: 4},
			{Name: "mode", Doc: "backend", Default: 1, Values: []string{"fast", "safe"}},
			{Name: "budget", Doc: "open-ended", Default: 0, Min: 0, Max: NoMax},
		},
		New:      func(p Params) explore.Session { return explore.Session{} },
		Dedup:    true,
		Symmetry: true,
		Sampling: Sampling{Budget: 500, Depth: 3},
	})
	s, err := Lookup(name)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", name, err)
	}
	return s
}

func TestDescribe(t *testing.T) {
	s := jsonSpec(t, "jsontest-describe")
	info := Describe(s)
	if info.Name != s.Name() || info.Doc != s.Doc() {
		t.Fatalf("identity mismatch: %+v", info)
	}
	if !info.Capabilities.Dedup || !info.Capabilities.Prune || !info.Capabilities.Symmetry || info.Capabilities.Unbounded {
		t.Fatalf("capabilities mismatch: %+v", info.Capabilities)
	}
	if info.Sampling != (SamplingInfo{Budget: 500, Depth: 3}) {
		t.Fatalf("sampling mismatch: %+v", info.Sampling)
	}
	// Params include the auto-appended engine params, name-sorted.
	byName := map[string]ParamInfo{}
	var order []string
	for _, p := range info.Params {
		byName[p.Name] = p
		order = append(order, p.Name)
	}
	for _, want := range []string{"n", "mode", "budget", ParamCrashes, ParamSteps} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("param %q missing from %v", want, order)
		}
	}
	if !strings.HasPrefix(strings.Join(order, ","), "budget,crashes,mode") {
		t.Fatalf("params not name-sorted: %v", order)
	}

	mode := byName["mode"]
	if mode.Range != "fast|safe" || mode.DefaultName != "safe" || len(mode.Values) != 2 {
		t.Fatalf("enum projection wrong: %+v", mode)
	}
	if mode.Min != 0 || mode.Max != 1 || mode.Unbounded {
		t.Fatalf("enum derived domain wrong: %+v", mode)
	}

	n := byName["n"]
	if n.Range != "1..4" || n.DefaultName != "2" || n.Min != 1 || n.Max != 4 || n.Unbounded {
		t.Fatalf("int projection wrong: %+v", n)
	}

	budget := byName["budget"]
	if !budget.Unbounded || budget.Max != 0 {
		t.Fatalf("NoMax must project as unbounded with Max suppressed: %+v", budget)
	}

	// The record must round-trip through encoding/json without the NoMax
	// sentinel leaking as a giant literal.
	raw, err := json.Marshal(info)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if strings.Contains(string(raw), "9223372036854775807") {
		t.Fatalf("NoMax sentinel leaked into JSON: %s", raw)
	}
}

func TestDescribeAllCoversRegistry(t *testing.T) {
	infos := DescribeAll()
	specs := All()
	if len(infos) != len(specs) {
		t.Fatalf("DescribeAll returned %d records for %d specs", len(infos), len(specs))
	}
	for i, s := range specs {
		if infos[i].Name != s.Name() {
			t.Fatalf("record %d is %q, want %q", i, infos[i].Name, s.Name())
		}
	}
}

func TestParamErrorInfo(t *testing.T) {
	s := jsonSpec(t, "jsontest-paramerror")

	// Out-of-range integer value.
	_, err := Resolve(s, Params{"n": 99})
	var pe *ParamError
	if !errors.As(err, &pe) {
		t.Fatalf("Resolve: got %v, want *ParamError", err)
	}
	info := pe.Info()
	if info.Spec != s.Name() || info.Param != "n" || info.Value != 99 || info.Unknown {
		t.Fatalf("range violation projected wrong: %+v", info)
	}
	if info.Decl == nil || info.Decl.Range != "1..4" {
		t.Fatalf("violated decl missing: %+v", info)
	}
	if len(info.Declared) != len(s.Params()) {
		t.Fatalf("Declared has %d domains, want %d", len(info.Declared), len(s.Params()))
	}
	if info.Error == "" || !strings.Contains(info.Error, "n=99") {
		t.Fatalf("human message lost: %q", info.Error)
	}

	// Unknown parameter name.
	_, err = Resolve(s, Params{"bogus": 1})
	if !errors.As(err, &pe) {
		t.Fatalf("Resolve unknown: got %v, want *ParamError", err)
	}
	info = pe.Info()
	if !info.Unknown || info.Param != "bogus" || info.Decl != nil {
		t.Fatalf("unknown-name violation projected wrong: %+v", info)
	}

	// Unknown symbolic value of an enum param.
	_, err = TextGrid(s, map[string][]string{"mode": {"turbo"}})
	if !errors.As(err, &pe) {
		t.Fatalf("TextGrid: got %v, want *ParamError", err)
	}
	info = pe.Info()
	if info.ValueName != "turbo" || info.Decl == nil || info.Decl.Range != "fast|safe" {
		t.Fatalf("enum-value violation projected wrong: %+v", info)
	}
}
