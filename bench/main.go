// Command bench is the repository benchmark. It times calls into the public
// functions of spec, explore, explore/sample, explore/sessions, sched and
// service from outside, on four workloads:
//
//   - tree: sequential tree walks (no reduction store) over four cells,
//     including the commit-adopt cell docs/PERFORMANCE.md tracks;
//   - graph: dedup and symmetry walks, two of them parallel;
//   - sample: the sampling engine with coverage, on BG, the Ωx detector and
//     commit-adopt;
//   - daemon: two closed-loop HTTP clients against service.Server.
//
// A run sets up a fixed number of times (each set-up ends with an untimed
// warm-up pass), then runs a fixed number of timed passes, and prints every
// metric as "workload metric value unit", each timing's percentiles, and
// last a JSON line {"correct", "attempted", "failed", "metrics"}. An
// untraced run reports the end-to-end metrics; a traced run (-trace 1, or
// -trace DIR to also write DIR/<workload>.json spans) reports the per-layer
// ones. A failed correctness gate exits 1. Without -workload, each workload
// runs in its own process. See README.md.
//
// Usage:
//
//	bench [-workload W] [-seed N] [-seconds S] [-trace 0|1|DIR] [-short] [-out FILE]
//	bench compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	// Register the built-in specs.
	_ "mpcn/internal/explore/sessions"
)

var workloadNames = []string{"tree", "graph", "sample", "daemon"}

// runLength is how many set-ups and timed passes a run of each workload
// makes, and which percentile of its pass times sweep_s reports. The counts
// are fixed, not derived from a time budget, so that two commits time the
// same work and take the percentile over equally many samples. They are
// sized for about 15 s of passes on the 2-vCPU host of README.md; -seconds
// only cuts short a much slower build. A cell workload's pass lasts seconds
// and its fastest pass is the steadiest across runs; a daemon pass lasts
// tens of milliseconds, so its fastest of 150 is an outlier and the median
// is steadier.
var runLength = map[string]struct {
	setups, passes int
	sweepPct       float64
}{
	"tree":   {3, 8, 0},
	"graph":  {3, 8, 0},
	"sample": {3, 12, 0},
	"daemon": {15, 150, 0.5},
}

// shortLength is the run length of every workload under -short.
const shortLength = 2

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	spans    string // directory for span files; empty = keep them in memory only
	short    bool
	out      string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o options
	var traceArg string
	flag.StringVar(&o.workload, "workload", "", "workload to run: tree, graph, sample or daemon (empty: each, in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the cell order, the sampling seeds and the daemon's job stream")
	flag.Float64Var(&o.seconds, "seconds", 25, "safety cap: once the timed passes have run this long, the run stops after at least three")
	flag.StringVar(&traceArg, "trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics; DIR: traced, spans written to DIR")
	flag.BoolVar(&o.short, "short", false, "tiny cells, for the self-test")
	flag.StringVar(&o.out, "out", "", "append the result record to this JSON-lines file (the input of compare)")
	flag.Parse()
	switch traceArg {
	case "0":
	case "1":
		o.traced = true
	default:
		o.traced, o.spans = true, traceArg
	}
	if o.workload == "" {
		os.Exit(runEach())
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	res, err := run(o)
	if err == nil {
		err = checkDeclared(bf, o.traced, res.metrics)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		res.correct = false
		res.metrics = metrics{}
	}
	res.print(os.Stdout)
	if err == nil && o.out != "" {
		err = res.appendTo(o.out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
	}
	if err != nil {
		os.Exit(1)
	}
}

// runEach re-executes this binary once per workload, so each gets its own
// process, heap and peak RSS reading.
func runEach() int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	code := 0
	for _, w := range workloadNames {
		cmd := exec.Command(exe, append(os.Args[1:], "-workload", w)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// workload is one of the four: a set-up ending in a warm-up pass, timed
// passes, and the per-layer metrics only it can compute.
type workload interface {
	warmup() error
	// pass runs timed pass i (i >= 1); tr is nil on untraced passes.
	pass(i int, tr *tracer) (passResult, error)
	report(m metrics)
}

// passResult is one pass as its callers saw it.
type passResult struct {
	dur       time.Duration
	verdicts  []float64 // ms each call or job waited for its verdict
	attempted int
	failed    int
}

// workers is the parallelism of every load: nproc, capped at 4.
func workers() int { return min(runtime.NumCPU(), 4) }

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "tree":
		return newCellBench(treeCells(o.short), o.seed, workers()), nil
	case "graph":
		return newCellBench(graphCells(o.short), o.seed, workers()), nil
	case "sample":
		return newCellBench(sampleCells(o.short), o.seed, workers()), nil
	case "daemon":
		return newDaemonBench(o.seed, workers(), o.short)
	}
	return nil, fmt.Errorf("unknown workload %q (want tree, graph, sample or daemon)", o.workload)
}

// outcome is one run's result.
type outcome struct {
	machine   machine
	traced    bool
	correct   bool
	attempted int
	failed    int
	metrics   metrics
	timings   []timing
}

func run(o options) (*outcome, error) {
	out := &outcome{machine: describe(o.seed, o.workload), traced: o.traced, metrics: metrics{}}
	length, ok := runLength[o.workload]
	if !ok {
		return out, fmt.Errorf("unknown workload %q (want tree, graph, sample or daemon)", o.workload)
	}
	if o.short {
		length.setups, length.passes = shortLength, shortLength
	}
	var w workload
	var setups []float64
	for k := 0; k < length.setups; k++ {
		// Each set-up starts from a collected heap, so none pays for the
		// garbage of the one before (a daemon set-up leaves 64 MiB stores).
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = newWorkload(o); err != nil {
			return out, err
		}
		if err := w.warmup(); err != nil {
			return out, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	var plain, traced, verdicts []float64
	var before, after runtime.MemStats
	heapPeak := 0.0
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 1; i <= length.passes; i++ {
		if i > 3 && time.Since(start).Seconds() > o.seconds {
			fmt.Fprintf(os.Stderr, "bench: %s: stopped after %d of %d passes: -seconds %g reached\n", o.workload, i-1, length.passes, o.seconds)
			break
		}
		// A traced run alternates traced and untraced passes: the untraced
		// ones give the rates and the tracing overhead.
		var ptr *tracer
		if o.traced && i%2 == 1 {
			ptr = tr
		}
		pr, err := w.pass(i, ptr)
		out.attempted += pr.attempted
		out.failed += pr.failed
		if err != nil {
			return out, fmt.Errorf("pass %d: %w", i, err)
		}
		if ptr != nil {
			traced = append(traced, pr.dur.Seconds())
		} else {
			plain = append(plain, pr.dur.Seconds())
			verdicts = append(verdicts, pr.verdicts...)
		}
		if o.traced {
			runtime.ReadMemStats(&after)
			heapPeak = max(heapPeak, float64(after.HeapInuse)/(1<<20))
		}
		// Each pass starts from a collected heap, so no pass pays for
		// another's garbage and the daemon's retained stores are released.
		runtime.GC()
	}
	runtime.ReadMemStats(&after)
	out.timings = []timing{
		{Name: "setup_s", Unit: "s", Vals: setups},
		{Name: "pass_s", Unit: "s", Vals: plain},
		{Name: "verdict_ms", Unit: "ms", Vals: verdicts},
	}
	if d, ok := w.(*daemonBench); ok {
		out.timings = append(out.timings,
			timing{Name: "service.job_ms", Unit: "ms", Vals: d.jobLat},
			timing{Name: "service.hit_ms", Unit: "ms", Vals: d.hitLat})
	}
	if !o.traced {
		out.metrics = newMetrics(endToEnd)
		out.metrics.set("setup_s", median(setups))
		// On a shared machine the slower passes measure the neighbours.
		// README.md gives the spreads that chose each workload's percentile.
		out.metrics.set("sweep_s", percentile(plain, length.sweepPct))
		out.metrics.set("max_rss_mb", maxRSSMiB())
		out.correct = true
		return out, nil
	}
	m := newMetrics(perLayer)
	w.report(m)
	m.set("runtime.gc_cycles", float64((after.NumGC-before.NumGC)-(after.NumForcedGC-before.NumForcedGC)))
	m.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	m.set("runtime.heap_inuse_mb", heapPeak)
	m.set("trace.overhead_frac", ratio(median(traced), median(plain))-1)
	scale := 1
	if o.short {
		scale = 100
	}
	if err := runProbes(m, scale); err != nil {
		return out, fmt.Errorf("probes: %w", err)
	}
	if err := tr.finish(o.spans, o.workload); err != nil {
		return out, err
	}
	out.metrics = m
	out.correct = true
	return out, nil
}

// print writes the human-readable lines, then the result as the last line.
func (r *outcome) print(w io.Writer) {
	wl := r.machine.Workload
	desc, _ := json.Marshal(r.machine) // plain data: cannot fail
	fmt.Fprintf(w, "%s machine %s\n", wl, desc)
	for _, t := range r.timings {
		fmt.Fprintf(w, "%s timing %s p50=%.6g p90=%.6g p95=%.6g p99=%.6g n=%d %s\n",
			wl, t.Name, t.p(0.5), t.p(0.9), t.p(0.95), t.p(0.99), len(t.Vals), t.Unit)
	}
	for _, name := range r.metrics.names() {
		mt := r.metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", wl, name, mt.Value, mt.Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, r.metrics}) // the format wants attempted >= 1, even from a run that failed in set-up
	fmt.Fprintf(w, "%s\n", line)
}

// record is one line of a result file, the input of compare.
type record struct {
	Machine   machine `json:"machine"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func (r *outcome) appendTo(path string) error {
	line, err := json.Marshal(record{r.machine, r.traced, r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}
