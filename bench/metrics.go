package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics an untraced run reports on every workload: what
// a caller of the checker waits for or pays.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"max_rss_mb", "MiB"},
}

// perLayer lists the metrics a traced run reports on every workload. A
// metric of a layer the workload does not exercise reads 0.
var perLayer = []metricDecl{
	{"explore.self_s", "s"},
	{"explore.runs_per_sec", "runs/s"},
	{"explore.tracked_runs_per_sec", "runs/s"},
	{"explore.nobatch_x", "ratio"},
	{"explore.allocs_per_run", "count"},
	{"explore.bytes_per_run", "B"},
	{"explore.runs", "count"},
	{"explore.pruned", "count"},
	{"explore.worker_skew", "ratio"},
	{"explore.frontier_s", "s"},
	{"sched.ns_per_step", "ns"},
	{"sched.steps", "count"},
	{"sched.direct_step_ns", "ns"},
	{"sched.inline_step_ns", "ns"},
	{"sessions.make_ns", "ns"},
	{"sessions.check_ns", "ns"},
	{"sessions.check_calls", "count"},
	{"sessions.fingerprint_ns", "ns"},
	{"sessions.fingerprint_calls", "count"},
	{"fp.fold_ns", "ns"},
	{"fp.orbit_fold_ns", "ns"},
	{"dedup.lookups", "count"},
	{"dedup.hit_ratio", "ratio"},
	{"dedup.states", "count"},
	{"dedup.evictions", "count"},
	{"dedup.probe_hit_ns.w1", "ns"},
	{"dedup.probe_hit_ns.w2", "ns"},
	{"dedup.probe_miss_ns.w1", "ns"},
	{"dedup.probe_miss_ns.w2", "ns"},
	{"dedup.new_ms", "ms"},
	{"sample.self_s", "s"},
	{"sample.samples_per_sec", "samples/s"},
	{"sample.worker_skew", "ratio"},
	{"sample.pick_ns.walk", "ns"},
	{"sample.pick_ns.pct", "ns"},
	{"sample.pick_ns.swarm", "ns"},
	{"sample.distinct", "count"},
	{"service.job_p50_ms", "ms"},
	{"service.job_p95_ms", "ms"},
	{"service.hit_p50_ms", "ms"},
	{"service.hit_p95_ms", "ms"},
	{"service.hit_p99_ms", "ms"},
	{"service.jobs_per_sec", "jobs/s"},
	{"service.submit_ms", "ms"},
	{"service.handler_ms.post_jobs", "ms"},
	{"service.prepare_us", "us"},
	{"service.key_us", "us"},
	{"service.engine_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.pool_reuse_ratio", "ratio"},
	{"service.hit_ratio", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_inuse_mb", "MiB"},
	{"trace.overhead_frac", "fraction"},
}

type metricDecl struct {
	Name string
	Unit string
}

// metrics is the set a run reports: exactly the names of one of the lists
// above.
type metrics map[string]metric

// newMetrics starts a set with every declared name at 0.
func newMetrics(decls []metricDecl) metrics {
	m := make(metrics, len(decls))
	for _, d := range decls {
		m[d.Name] = metric{Unit: d.Unit}
	}
	return m
}

// set records a value for a declared name; an undeclared name is a bug.
func (m metrics) set(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not declared", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	mt.Value = v
	m[name] = mt
}

func (m metrics) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: the
// metric names, units and bounds.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readBenchmarkFile reads BENCHMARK.json at the repository root: the current
// directory when run through run.sh, its parent when run (or tested) from
// bench/, which is a Go module of its own.
func readBenchmarkFile() (*benchmarkFile, error) {
	path := "BENCHMARK.json"
	if _, err := os.Stat(path); err != nil {
		path = filepath.Join("..", path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// checkDeclared reports a mismatch between the metrics a run emits and the
// ones BENCHMARK.json lists for that mode.
func checkDeclared(f *benchmarkFile, traced bool, m metrics) error {
	want := make(map[string]string)
	if traced {
		for _, d := range f.PerLayer {
			want[d.Name] = d.Unit
		}
	} else {
		for _, d := range f.EndToEnd {
			want[d.Name] = d.Unit
		}
	}
	for name, mt := range m {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
		if unit != mt.Unit {
			return fmt.Errorf("metric %s: unit %s, BENCHMARK.json says %s", name, mt.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("BENCHMARK.json lists %s, which the run does not emit", name)
		}
	}
	return nil
}
