package explore_test

import (
	"fmt"
	"strings"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/spec"
)

// walkGolden pins one sequential dedup walk. Moving a store probe within a
// chain of single-alternative nodes moves the cut within that chain, where
// it drops nothing, so the explored leaves and every tree counter stay put;
// only the probe counts may change. lookups is therefore an upper bound:
// the probe count of the walk that fingerprinted every new decision node.
type walkGolden struct {
	runs, pruned, maxDepth int
	exhausted              bool
	cut                    int
	lookups                int64
}

// dedupWalkGoldens holds the sequential walk of every registered spec with a
// Fingerprint at the points dedupWalkPoints lists, in the modes
// dedupWalkModes lists. The figures were recorded when the walk still
// probed the store at every new decision node.
var dedupWalkGoldens = map[string]walkGolden{
	// runs, pruned, maxDepth, exhausted, cut, lookups
	"cas/crashes=0,n=3/dedup":            {163, 0, 13, true, 276, 370},
	"cas/crashes=0,n=3/prune":            {112, 85, 13, true, 15, 367},
	"cas/crashes=0/dedup":                {10, 0, 8, true, 6, 27},
	"cas/crashes=0/prune":                {5, 5, 8, true, 0, 23},
	"cas/crashes=1/dedup":                {40, 0, 8, true, 32, 53},
	"cas/crashes=1/prune":                {34, 6, 8, true, 0, 55},
	"commitadopt/crashes=0,n=3/dedup":    {1784, 0, 15, true, 3792, 3415},
	"commitadopt/crashes=0,n=3/prune":    {936, 1114, 15, true, 258, 2838},
	"commitadopt/crashes=0,n=3/symmetry": {315, 0, 15, true, 685, 586},
	"commitadopt/crashes=0/dedup":        {38, 0, 10, true, 40, 89},
	"commitadopt/crashes=0/prune":        {16, 22, 10, true, 0, 71},
	"commitadopt/crashes=0/symmetry":     {22, 0, 10, true, 24, 50},
	"commitadopt/crashes=1/dedup":        {138, 0, 10, true, 182, 217},
	"commitadopt/crashes=1/prune":        {109, 29, 10, true, 0, 225},
	"commitadopt/crashes=1/symmetry":     {77, 0, 10, true, 114, 119},
	"hierarchy/crashes=0/dedup":          {10, 0, 7, true, 6, 25},
	"hierarchy/crashes=0/prune":          {4, 6, 7, true, 0, 21},
	"hierarchy/crashes=1/dedup":          {36, 0, 7, true, 38, 51},
	"hierarchy/crashes=1/prune":          {28, 8, 7, true, 0, 51},
	"mlset/crashes=0,n=4/dedup":          {161, 0, 8, true, 384, 281},
	"mlset/crashes=0,n=4/prune":          {71, 129, 8, true, 6, 217},
	"mlset/crashes=0/dedup":              {29, 0, 6, true, 33, 55},
	"mlset/crashes=0/prune":              {13, 19, 6, true, 0, 42},
	"mlset/crashes=1/dedup":              {113, 0, 6, true, 150, 163},
	"mlset/crashes=1/prune":              {104, 40, 6, true, 0, 189},
	"queue/crashes=0,n=4/dedup":          {1577, 0, 12, true, 4434, 2497},
	"queue/crashes=0,n=4/prune":          {1896, 953, 12, true, 1444, 3647},
	"queue/crashes=0/dedup":              {131, 0, 9, true, 201, 235},
	"queue/crashes=0/prune":              {106, 58, 9, true, 16, 253},
	"queue/crashes=1/dedup":              {467, 0, 9, true, 945, 661},
	"queue/crashes=1/prune":              {609, 126, 9, true, 242, 985},
	"registers/crashes=0,n=4/dedup":      {514, 0, 12, true, 2898, 765},
	"registers/crashes=0,n=4/prune":      {235, 693, 12, true, 207, 618},
	"registers/crashes=0,n=4/symmetry":   {72, 0, 12, true, 431, 105},
	"registers/crashes=0/dedup":          {82, 0, 9, true, 207, 142},
	"registers/crashes=0/prune":          {31, 72, 9, true, 3, 109},
	"registers/crashes=0/symmetry":       {27, 0, 9, true, 77, 45},
	"registers/crashes=1/dedup":          {280, 0, 9, true, 891, 409},
	"registers/crashes=1/prune":          {262, 198, 9, true, 45, 540},
	"registers/crashes=1/symmetry":       {84, 0, 9, true, 318, 115},
	"renaming/crashes=0,n=3/dedup":       {32118, 0, 31, true, 16103, 66324},
	"renaming/crashes=0,n=3/prune":       {23970, 8720, 31, true, 598, 59233},
	"renaming/crashes=0/dedup":           {54, 0, 14, true, 39, 135},
	"renaming/crashes=0/prune":           {35, 19, 14, true, 0, 119},
	"renaming/crashes=1/dedup":           {220, 0, 14, true, 172, 301},
	"renaming/crashes=1/prune":           {189, 31, 14, true, 0, 321},
	"safe/crashes=0,n=3/dedup":           {27515, 0, 17, true, 14104, 51823},
	"safe/crashes=0,n=3/prune":           {20453, 7678, 17, true, 896, 45892},
	"safe/crashes=0/dedup":               {70, 0, 11, true, 45, 161},
	"safe/crashes=0/prune":               {49, 21, 11, true, 0, 143},
	"safe/crashes=1/dedup":               {276, 0, 11, true, 191, 385},
	"safe/crashes=1/prune":               {235, 41, 11, true, 0, 409},
	"sb/crashes=0/dedup":                 {10, 0, 6, true, 6, 23},
	"sb/crashes=0/prune":                 {5, 5, 6, true, 0, 19},
	"sb/crashes=1/dedup":                 {36, 0, 6, true, 28, 49},
	"sb/crashes=1/prune":                 {29, 7, 6, true, 0, 51},
	"stack/crashes=0,n=4/dedup":          {1577, 0, 12, true, 4434, 2497},
	"stack/crashes=0,n=4/prune":          {1896, 953, 12, true, 1444, 3647},
	"stack/crashes=0/dedup":              {131, 0, 9, true, 201, 235},
	"stack/crashes=0/prune":              {106, 58, 9, true, 16, 253},
	"stack/crashes=1/dedup":              {467, 0, 9, true, 945, 661},
	"stack/crashes=1/prune":              {609, 126, 9, true, 242, 985},
	"testandset/crashes=0,n=4/dedup":     {161, 0, 8, true, 384, 269},
	"testandset/crashes=0,n=4/prune":     {71, 129, 8, true, 6, 217},
	"testandset/crashes=0,n=4/symmetry":  {27, 0, 8, true, 108, 40},
	"testandset/crashes=0/dedup":         {29, 0, 6, true, 33, 55},
	"testandset/crashes=0/prune":         {13, 19, 6, true, 0, 42},
	"testandset/crashes=0/symmetry":      {12, 0, 6, true, 22, 20},
	"testandset/crashes=1/dedup":         {101, 0, 6, true, 153, 133},
	"testandset/crashes=1/prune":         {98, 37, 6, true, 6, 165},
	"testandset/crashes=1/symmetry":      {35, 0, 6, true, 91, 45},
	"universal/crashes=0,n=3/dedup":      {686, 0, 18, true, 2118, 1285},
	"universal/crashes=0,n=3/prune":      {276, 772, 18, true, 203, 1061},
	"universal/crashes=0/dedup":          {23, 0, 10, true, 18, 58},
	"universal/crashes=0/prune":          {9, 14, 10, true, 0, 48},
	"universal/crashes=1/dedup":          {84, 0, 10, true, 118, 127},
	"universal/crashes=1/prune":          {66, 19, 10, true, 1, 132},
	"xcompete/crashes=0,n=4/dedup":       {373, 0, 11, true, 1215, 653},
	"xcompete/crashes=0,n=4/prune":       {268, 402, 11, true, 154, 708},
	"xcompete/crashes=0/dedup":           {44, 0, 8, true, 62, 91},
	"xcompete/crashes=0/prune":           {23, 30, 8, true, 3, 81},
	"xcompete/crashes=1/dedup":           {152, 0, 8, true, 281, 217},
	"xcompete/crashes=1/prune":           {152, 50, 8, true, 13, 278},
	"xconsensus/crashes=0/dedup":         {5, 0, 4, true, 1, 11},
	"xconsensus/crashes=0/prune":         {3, 2, 4, true, 0, 9},
	"xconsensus/crashes=1/dedup":         {17, 0, 4, true, 6, 23},
	"xconsensus/crashes=1/prune":         {14, 3, 4, true, 0, 20},
	"xsafe/crashes=0,n=3/dedup":          {473, 0, 13, true, 1233, 835},
	"xsafe/crashes=0,n=3/prune":          {263, 386, 13, true, 113, 746},
	"xsafe/crashes=0/dedup":              {29, 0, 9, true, 27, 65},
	"xsafe/crashes=0/prune":              {13, 16, 9, true, 0, 51},
	"xsafe/crashes=1/dedup":              {103, 0, 9, true, 113, 161},
	"xsafe/crashes=1/prune":              {80, 23, 9, true, 0, 168},
}

// dedupWalkModes returns the modes s is walked in, by name: Dedup,
// Dedup+Prune and, for symmetric specs, Dedup+Symmetry.
func dedupWalkModes(s spec.Spec) map[string]explore.Config {
	modes := map[string]explore.Config{"dedup": {Dedup: true}, "prune": {Dedup: true, Prune: true}}
	if s.SupportsSymmetry() {
		modes["symmetry"] = explore.Config{Dedup: true, Symmetry: true}
	}
	return modes
}

// dedupWalkPoints returns the param points s is walked at: its defaults
// with crashes 0 and 1 and, unless short, one more process at crashes 0
// where s takes an n that large.
func dedupWalkPoints(t *testing.T, s spec.Spec) []spec.Params {
	points := []spec.Params{{spec.ParamCrashes: 0}, {spec.ParamCrashes: 1}}
	def, err := spec.Resolve(s, spec.Params{})
	if err != nil {
		t.Fatalf("%s: Resolve: %v", s.Name(), err)
	}
	if n, ok := def["n"]; ok && !testing.Short() {
		larger := spec.Params{spec.ParamCrashes: 0, "n": n + 1}
		if _, err := spec.Resolve(s, larger); err == nil {
			points = append(points, larger)
		}
	}
	return points
}

// TestDedupWalkGoldens: a sequential dedup walk probes the visited store
// only where a cut can drop something, at nodes with two or more
// alternatives, yet it explores exactly the tree a walk probing every new
// node explores: the same runs, pruned alternatives, depth, exhaustion and
// cut alternatives, with no more probes. -short skips the larger points.
func TestDedupWalkGoldens(t *testing.T) {
	walked := make(map[string]bool)
	for _, s := range spec.All() {
		if !s.SupportsDedup() {
			continue
		}
		for _, p := range dedupWalkPoints(t, s) {
			resolved, err := spec.Resolve(s, p)
			if err != nil {
				t.Fatalf("%s: Resolve: %v", s.Name(), err)
			}
			for mode, base := range dedupWalkModes(s) {
				name := fmt.Sprintf("%s/%s/%s", s.Name(), strings.ReplaceAll(p.String(), " ", ","), mode)
				walked[name] = true
				base.Workers = 1
				cfg, err := spec.Config(s, resolved, base)
				if err != nil {
					t.Fatalf("%s: Config: %v", name, err)
				}
				st, err := explore.ExploreContext(t.Context(), spec.Factory(s, resolved), cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := walkGolden{
					runs: st.Runs, pruned: st.Pruned, maxDepth: st.MaxDepth,
					exhausted: st.Exhausted, cut: st.Dedup.CutAlternatives, lookups: st.Dedup.Lookups,
				}
				want, ok := dedupWalkGoldens[name]
				if !ok {
					t.Errorf("no golden for %s: got %#v", name, got)
					continue
				}
				if got.lookups <= want.lookups {
					got.lookups = want.lookups
				}
				if got != want {
					t.Errorf("%s: walk %+v, want %+v (lookups at most)", name, got, want)
				}
			}
		}
	}
	for name := range dedupWalkGoldens {
		if !walked[name] && !testing.Short() {
			t.Errorf("golden %s names no walked cell", name)
		}
	}
}
