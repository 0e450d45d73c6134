package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/explore/spec"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestWorkloadsShort runs every workload at tiny sizes, untraced and
// traced, and checks that each emits exactly the metrics BENCHMARK.json
// lists for that mode, all finite, with every gate passing.
func TestWorkloadsShort(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	if len(listed) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", listed, workloadNames)
	}
	for i, name := range workloadNames {
		if listed[i] != name {
			t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", listed, workloadNames)
		}
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 1, short: true, traced: traced}
			if traced {
				o.spans = t.TempDir()
			}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.correct || res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.correct, res.attempted, res.failed)
			}
			if err := checkDeclared(bf, traced, res.metrics); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
			for n, m := range res.metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v", name, n, m.Value)
				}
			}
			if !traced {
				for _, n := range []string{"setup_s", "sweep_s", "max_rss_mb"} {
					if res.metrics[n].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, res.metrics[n].Value)
					}
				}
				continue
			}
			b, err := os.ReadFile(filepath.Join(o.spans, name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
				t.Errorf("%s: span file holds %d spans (%v)", name, len(spans), err)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartiles([]float64{4, 1, 2}), [3]float64{1, 2, 4}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	cases := []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"identical", steady, steady, true, "same"},
		{"faster by 20%", steady, shift(steady, 0.8), true, "improved"},
		{"slower by 20%", steady, shift(steady, 1.2), true, "regressed"},
		{"slower within the bound", steady, shift(steady, 1.05), true, "same"},
		{"higher is better", steady, shift(steady, 1.2), false, "improved"},
		{"higher is better, lower", steady, shift(steady, 0.8), false, "regressed"},
		{"too noisy", steady, []float64{50, 150, 80, 120, 60, 140, 100, 70, 130, 90}, true, "unresolved"},
		{"wins too few pairs", steady, []float64{80, 80, 80, 80, 80, 80, 80, 80, 120, 120}, true, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.lowerBetter, 0.1).label; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	rec := func(cpu string) record {
		m := newMetrics(endToEnd)
		m.set("sweep_s", 1)
		return record{Machine: machine{Host: host{CPU: cpu}, Workload: "tree"}, Correct: true, Metrics: m}
	}
	if _, err := compare(bf, []record{rec("a")}, []record{rec("a")}); err != nil {
		t.Errorf("same machine: %v", err)
	}
	if _, err := compare(bf, []record{rec("a")}, []record{rec("b")}); err == nil {
		t.Error("compared results of different machines")
	}
}

// TestTrackedCellAllocations checks docs/PERFORMANCE.md's claim that the
// tracked cell's steady state allocates nothing per run.
func TestTrackedCellAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s, p, err := trackedSession()
	if err != nil {
		t.Fatal(err)
	}
	explorePrefix := func(runs int) explore.Stats {
		cfg, err := spec.Config(s, p, explore.Config{MaxRuns: runs})
		if err != nil {
			t.Fatal(err)
		}
		st, err := explore.ExploreSession(s.New(p), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	explorePrefix(1000) // warm the label table and the allocator
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := explorePrefix(200_000)
	runtime.ReadMemStats(&after)
	perRun := float64(after.Mallocs-before.Mallocs) / float64(st.Runs)
	if perRun >= 0.01 {
		t.Errorf("tracked cell allocates %.4f objects per run over %d runs, want < 0.01", perRun, st.Runs)
	}
}
