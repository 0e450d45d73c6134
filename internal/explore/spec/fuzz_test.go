package spec

import (
	"reflect"
	"strings"
	"testing"
)

// rawGrid splits text the way the CLI's -set flags arrive: space-separated
// "name=v1,v2" settings, each value list split at commas. A later setting of
// a name replaces an earlier one.
func rawGrid(text string) map[string][]string {
	raw := make(map[string][]string)
	for _, setting := range strings.Fields(text) {
		name, vals, _ := strings.Cut(setting, "=")
		raw[name] = strings.Split(vals, ",")
	}
	return raw
}

// renderGrid renders an integer grid back to text values, each through
// ValueName: symbolic names for string-domain params, decimals otherwise.
func renderGrid(s Spec, grids map[string][]int) map[string][]string {
	decls := make(map[string]Param)
	for _, d := range s.Params() {
		decls[d.Name] = d
	}
	raw := make(map[string][]string, len(grids))
	for name, vals := range grids {
		text := make([]string, len(vals))
		for i, v := range vals {
			text[i] = decls[name].ValueName(v)
		}
		raw[name] = text
	}
	return raw
}

// FuzzTextGrid drives TextGrid, the parameter parsing of cmd/explore's -set
// flags and of POST /jobs, with arbitrary settings text over a spec with
// integer and string-domain params. It never panics, and a grid it accepts,
// rendered back to text, parses to the same grid. Accepted grids of at most
// 64 cells are expanded by Grid too, which must not panic either.
func FuzzTextGrid(f *testing.F) {
	s, err := newScenario(testDecl("fuzz", func(d *Decl) {
		d.Params = append(d.Params, Param{Name: "backend", Doc: "memory model", Values: []string{"atomic", "regular", "tso"}})
	}))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"n=2,3", "backend=regular x=1,8", "backend=atomic,tso n=4", "n=-1", "x=9",
		"backend=1", "n=0x10", "n=99999999999999999999", "bogus=1", "n=", "n", "n=2,,3", "n=+2 n=02",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		grids, err := TextGrid(s, rawGrid(text))
		if err != nil {
			return
		}
		again, err := TextGrid(s, renderGrid(s, grids))
		if err != nil {
			t.Fatalf("%q: rendered grid %v rejected: %v", text, renderGrid(s, grids), err)
		}
		if !reflect.DeepEqual(again, grids) {
			t.Fatalf("%q: grid %v re-parsed as %v", text, grids, again)
		}
		cells := 1
		for _, vals := range grids {
			cells *= max(len(vals), 1)
			if cells > 64 {
				return
			}
		}
		Grid(s, grids)
	})
}
