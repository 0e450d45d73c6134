// Command explore runs the model checker over grids of bounded
// configurations. By default it is exhaustive: every schedule (and
// optionally every crash placement) of the selected scenario is enumerated
// and its safety properties are checked, turning the repository's sampled
// sweeps into per-configuration proofs. With -sample it switches to the
// probabilistic engine: seeded random schedules (uniform walk, PCT or swarm
// mixing) drawn from the same decision tree — the way into state spaces the
// exhaustive walker cannot enumerate (the BG simulation, large grid cells).
//
// Scenarios are resolved through the spec registry (internal/explore/spec):
// every registered spec is a self-describing harness with typed parameter
// domains, and the flags below are parsed against the selected spec's
// declared domains. `explore -list` enumerates the registry.
//
// Usage:
//
//	explore -list
//	explore -object safe        -n 2,3 -crashes 0,1 [-prune] [-dedup] [-workers 8]
//	explore -object xsafe       -n 2,3 -x 1,2 -crashes 0,1 -prune
//	explore -object commitadopt -n 2 -crashes 0,1 -dedup
//	explore -object commitadopt -n 3 -dedup -symmetry
//	explore -object queue       -n 3 -set ops=1,2 -crashes 1 -dedup
//	explore -object bg          -n 2,3 -t 1 -maxruns 20000
//	explore -object registers   -n 3 -prune -compare
//	explore -object bg          -n 3 -t 1 -sample pct -samples 5000 -depth 8 -seed 7
//	explore -object commitadopt -n 4 -crashes 1 -sample swarm -samples 20000
//	explore -sample pct -allspecs -samples 2000 -seed 1
//
// Grid flags (-n, -x, -t, -crashes, -steps, -probes) accept comma-separated
// value lists and sweep their cartesian product; parameters the spec does
// not declare are rejected when set explicitly — the rejection names the
// offending parameter and prints the spec's declared domains. -set
// name=v1,v2 addresses any declared parameter by name (repeatable), so
// scenario-specific domains (ops, writes, retries, ...) need no dedicated
// flag. Each grid cell prints the visited-run count, pruned branches, tree
// depth, throughput and the exhaustion verdict; any property violation
// aborts with the reproducing decision script.
//
// Every grid cell is a job of the exploredd daemon's (internal/service): the
// flags are validated by service.NewJob, the daemon's own check, and the
// cell runs through service.Run, its engine dispatch. -json prints each
// cell's record in the daemon's Result encoding, so the CLI and a POST /jobs
// submission of the same cell give the same record.
//
// The BG simulation's decision tree is astronomically deep even for tiny
// configurations: bound it with -maxruns (the run is then a coverage smoke,
// reported as exhausted=false), keep n and t minimal — or switch to -sample.
// Specs that declare an unbounded tree (bg, detector) reject an exhaustive
// sweep without -maxruns before anything runs, as the daemon does.
//
// -compare additionally runs the sequential explorer on every cell and
// verifies that the parallel engine visited the identical state space — the
// determinism guarantee the engine's tests rely on.
//
// -dedup enables state-fingerprint deduplication (visited-state cut-offs;
// bound the store with -dedupmem); specs without a fingerprint (SupportsDedup
// false in -list) reject it up front. Under -dedup the parallel engine's
// visited-run count depends on worker timing, so -compare only verifies the
// exhaustion verdict and reports the sequential run count alongside.
//
// -symmetry additionally keys the visited store by orbit-canonical
// fingerprints (process-permutation symmetry reduction), so states that
// differ only by a renaming of the processes dedup together. It requires
// -dedup, and only specs declaring the symmetry capability ("symmetry" in
// -list) accept it — others reject it up front, like -dedup on a
// fingerprint-less spec. See docs/SYMMETRY.md.
//
// -cpuprofile and -memprofile write pprof profiles of the sweep (the
// throughput-campaign workflow: `make profile` captures the tracked cell,
// `go tool pprof` attributes the hot path). The memory profile is written at
// exit after a final GC, so it reflects retained allocations, not transient
// garbage.
//
// -sample pct|walk|swarm draws -samples seeded runs per grid cell instead of
// enumerating (crash budgets still come from -crashes; -depth sets the PCT
// depth d, -seed the stream seed). Sample i is a pure function of (seed, i),
// so a violating sample prints the reproducing decision script exactly like
// the exhaustive engine, plus its (seed, index) pair. Each cell reports
// samples/sec and the distinct-state coverage estimate; -allspecs sweeps
// every registered spec at its declared defaults and sampling budget (the
// CI sample-smoke mode). Under -allspecs the unbounded specs run with the
// cell parameter steps=800, which their labels and -json records show.
// -samples 0 is rejected: the daemon reads a zero budget as the spec's own.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sample"
	"mpcn/internal/explore/spec"
	"mpcn/internal/service"

	// Register the built-in scenarios.
	_ "mpcn/internal/explore/sessions"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

type options struct {
	object   string
	list     bool
	grids    map[string][]string
	workers  int
	maxRuns  int
	prune    bool
	dedup    bool
	dedupMem int
	symmetry bool
	compare  bool
	sample   string
	samples  int
	depth    int
	seed     int64
	allSpecs bool
	jsonOut  bool

	cpuprofile string
	memprofile string
}

// startProfiles begins the requested pprof captures and returns the stop
// function run uses as a deferred finalizer on every exit path.
func startProfiles(o options) (func(), error) {
	var cpu *os.File
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if o.memprofile != "" {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "explore: %v\n", err)
				return
			}
			runtime.GC() // retained allocations, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "explore: %v\n", err)
			}
			f.Close()
		}
	}, nil
}

// setFlags collects repeatable -set name=v1,v2 assignments.
type setFlags []string

func (s *setFlags) String() string     { return strings.Join(*s, " ") }
func (s *setFlags) Set(v string) error { *s = append(*s, v); return nil }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	var o options
	var sets setFlags
	named := map[string]*string{}
	fs.StringVar(&o.object, "object", "safe", "spec to check (see -list)")
	fs.BoolVar(&o.list, "list", false, "list the registered specs with their parameter domains and exit")
	for _, g := range []struct{ name, usage, def string }{
		{"n", "process counts (comma-separated grid)", "2"},
		{"x", "consensus numbers (comma-separated grid)", "1"},
		{"t", "resilience (comma-separated grid)", "1"},
		{"crashes", "max crashes per run (comma-separated grid)", "0"},
		{"steps", "per-run step budgets, 0 = default (comma-separated grid)", "0"},
		{"probes", "bounded decide probes per process (comma-separated grid)", "2"},
	} {
		named[g.name] = fs.String(g.name, g.def, g.usage)
	}
	fs.Var(&sets, "set", "grid for any declared spec parameter, name=v1,v2 (repeatable)")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size (<= 0 selects the default)")
	fs.IntVar(&o.maxRuns, "maxruns", 0, "abort each cell after this many runs (0 = exhaustive)")
	fs.BoolVar(&o.prune, "prune", false, "enable partial-order reduction")
	fs.BoolVar(&o.dedup, "dedup", false, "enable state-fingerprint deduplication (visited-state cut-offs)")
	fs.IntVar(&o.dedupMem, "dedupmem", 0, "visited-state store memory ceiling in MiB, grown into on demand (0 = default 64)")
	fs.BoolVar(&o.symmetry, "symmetry", false, "enable symmetry reduction (orbit-canonical fingerprints; needs -dedup)")
	fs.BoolVar(&o.compare, "compare", false, "verify the parallel run count against the sequential explorer")
	fs.StringVar(&o.sample, "sample", "", "sampling strategy: pct|walk|swarm (empty = exhaustive exploration)")
	fs.IntVar(&o.samples, "samples", 10000, "sampled runs per grid cell (with -sample)")
	fs.IntVar(&o.depth, "depth", 0, "PCT depth d: d-1 priority-change points per run (0 = spec/engine default)")
	fs.Int64Var(&o.seed, "seed", 1, "base seed of the sampled schedule stream")
	fs.BoolVar(&o.allSpecs, "allspecs", false, "with -sample: sweep every registered spec at its declared defaults and sampling budget")
	fs.BoolVar(&o.jsonOut, "json", false, "emit one JSON result record per grid cell (NDJSON; the exploredd daemon's encoding)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the sweep to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile (after a final GC) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProfiles, profErr := startProfiles(o)
	if profErr != nil {
		fmt.Fprintf(os.Stderr, "explore: %v\n", profErr)
		return 1
	}
	defer stopProfiles()
	if o.list {
		if o.jsonOut {
			printListJSON(out)
		} else {
			printList(out)
		}
		return 0
	}
	// Only explicitly-set named grid flags enter the parameter grids, so a
	// spec is never asked to validate the unrelated defaults of another
	// spec's convenience flags.
	o.grids = map[string][]string{}
	explicit := map[string]bool{}
	var err error
	fs.Visit(func(f *flag.Flag) {
		explicit[f.Name] = true
		if p, ok := named[f.Name]; ok && err == nil {
			err = addGrid(o.grids, f.Name, *p)
		}
	})
	if err == nil {
		err = rejectInapplicableFlags(o, explicit, len(sets) > 0)
	}
	if err == nil {
		for _, assign := range sets {
			name, vals, ok := strings.Cut(assign, "=")
			if !ok {
				err = fmt.Errorf("bad -set %q, want name=v1,v2", assign)
				break
			}
			if err = addGrid(o.grids, strings.TrimSpace(name), vals); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "explore: %v\n", err)
		return 2
	}
	// Ctrl-C (or SIGTERM) cancels the sweep at the engines' next run
	// boundary instead of leaving worker pools running to their budgets.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := sweep(ctx, o, out); err != nil {
		fmt.Fprintf(os.Stderr, "explore: %v\n", err)
		var paramErr *spec.ParamError
		if errors.As(err, &paramErr) {
			printDomains(os.Stderr, paramErr)
		}
		var pe *explore.PropertyError
		if errors.As(err, &pe) {
			fmt.Fprintf(os.Stderr, "replay script:\n  %s\n", strings.Join(pe.Script, "\n  "))
		}
		var se *sample.SampleError
		if errors.As(err, &se) {
			fmt.Fprintf(os.Stderr, "reproduce with: -sample %s -seed %d (violating sample index %d)\n",
				se.Strategy, se.Seed, se.Sample)
		}
		return 1
	}
	return 0
}

// rejectInapplicableFlags fails loudly on flag combinations one engine would
// otherwise silently ignore: exhaustive-only flags under -sample,
// sampling-only flags without it, -samples 0, and explicit scenario
// selection or grids under -allspecs (which sweeps every spec at its
// declared defaults). Silent drops would let the user believe a bound or a
// grid applied when it did not. Engine bounds and capabilities are checked
// per job by service.NewJob.
func rejectInapplicableFlags(o options, explicit map[string]bool, haveSets bool) error {
	if o.jsonOut && o.compare {
		return errors.New("-compare prints a human-readable comparison; drop it under -json")
	}
	if o.sample != "" {
		if o.samples == 0 {
			// The daemon reads samples=0 as "the spec's budget"; a user who
			// typed it meant no samples at all.
			return errors.New("-samples 0 draws nothing (give a positive count)")
		}
		for _, name := range []string{"prune", "dedup", "dedupmem", "symmetry", "maxruns", "compare"} {
			if explicit[name] {
				return fmt.Errorf("-%s applies to exhaustive exploration only (drop it or drop -sample)", name)
			}
		}
	} else {
		for _, name := range []string{"samples", "depth", "seed", "allspecs"} {
			if explicit[name] {
				return fmt.Errorf("-%s applies to schedule sampling only (add -sample pct|walk|swarm)", name)
			}
		}
	}
	if o.allSpecs {
		if explicit["object"] {
			return errors.New("-allspecs sweeps every registered spec; drop -object (or drop -allspecs to sample one spec)")
		}
		if haveSets || len(o.grids) > 0 {
			return errors.New("-allspecs samples every spec at its declared defaults; grid flags and -set need a single -object")
		}
	}
	return nil
}

// printDomains renders the rejected parameter's declared domain — or, for an
// unknown name, every domain the spec declares — in the -list syntax, so the
// user can correct the invocation without a second lookup.
func printDomains(out io.Writer, e *spec.ParamError) {
	if !e.Unknown {
		fmt.Fprintf(out, "declared domain:\n  -set %s=%s  [%s]  %s\n",
			e.Decl.Name, e.Decl.ValueName(e.Decl.Default), e.Decl.Range(), e.Decl.Doc)
		return
	}
	fmt.Fprintf(out, "declared parameters of %s:\n", e.Spec)
	for _, d := range e.Declared {
		fmt.Fprintf(out, "  -set %s=%s  [%s]  %s\n", d.Name, d.ValueName(d.Default), d.Range(), d.Doc)
	}
}

// addGrid records a raw textual value list; values are resolved against the
// selected spec's declared domains (spec.TextGrid) after lookup, so
// string-domain parameters accept their symbolic names (-set backend=regular).
func addGrid(grids map[string][]string, name, vals string) error {
	if _, dup := grids[name]; dup {
		return fmt.Errorf("parameter %q set twice", name)
	}
	parts := strings.Split(vals, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return fmt.Errorf("parameter %q: empty grid value", name)
		}
		out = append(out, p)
	}
	grids[name] = out
	return nil
}

// resolveGrid expands the raw textual grids into resolved parameter cells
// for s: value names of string-domain parameters resolve against the
// declared domain, everything else parses as a decimal grid.
func resolveGrid(s spec.Spec, raw map[string][]string) ([]spec.Params, error) {
	grids, err := spec.TextGrid(s, raw)
	if err != nil {
		return nil, err
	}
	return spec.Grid(s, grids)
}

// printListJSON enumerates the registry in the daemon's GET /specs encoding.
func printListJSON(out io.Writer) {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.Encode(spec.DescribeAll())
}

// printList enumerates the registry: every spec's doc line, parameter
// domains (name, default, valid range) and capability flags.
func printList(out io.Writer) {
	all := spec.All()
	fmt.Fprintf(out, "registered specs (%d):\n", len(all))
	for _, s := range all {
		caps := make([]string, 0, 3)
		if s.SupportsPrune() {
			caps = append(caps, "prune")
		}
		if s.SupportsDedup() {
			caps = append(caps, "dedup")
		}
		if s.SupportsSymmetry() {
			caps = append(caps, "symmetry")
		}
		if len(caps) == 0 {
			caps = append(caps, "none")
		}
		fmt.Fprintf(out, "\n%s — %s\n", s.Name(), s.Doc())
		fmt.Fprintf(out, "  supports: %s\n", strings.Join(caps, ", "))
		if sm := s.Sampling(); sm != (spec.Sampling{}) {
			fmt.Fprintf(out, "  sampling: budget=%d depth=%d\n", sm.Budget, sm.Depth)
		}
		for _, p := range s.Params() {
			fmt.Fprintf(out, "  -set %s=%s  [%s]  %s\n", p.Name, p.ValueName(p.Default), p.Range(), p.Doc)
		}
	}
}

// sweepJobs builds the job of every cell the invocation names: the -object
// spec's grid cells or, under -allspecs, every registered spec at its
// declared defaults and sampling budget. Each job goes through
// service.NewJob, the daemon's validation, and the whole sweep is rejected
// before anything runs when any of them is invalid.
func sweepJobs(o options) ([]*service.Job, error) {
	specs := spec.All()
	if !o.allSpecs {
		s, err := spec.Lookup(o.object)
		if err != nil {
			return nil, err
		}
		specs = []spec.Spec{s}
	}
	eng := service.Engine{
		Mode: service.ModeExhaustive, Workers: o.workers, MaxRuns: o.maxRuns,
		Prune: o.prune, Dedup: o.dedup, DedupMem: o.dedupMem, Symmetry: o.symmetry,
	}
	var seed int64
	if o.sample != "" {
		eng = service.Engine{
			Mode: service.ModeSample, Workers: o.workers,
			Strategy: o.sample, Samples: o.samples, Depth: o.depth,
		}
		seed = o.seed
	}
	var jobs []*service.Job
	for _, s := range specs {
		// Under -allspecs the flag check admits no grid, so every spec runs
		// at its declared defaults.
		cells, err := resolveGrid(s, o.grids)
		if err != nil {
			return nil, err
		}
		for _, p := range cells {
			e := eng
			if o.allSpecs {
				if b := s.Sampling().Budget; b > 0 && b < e.Samples {
					e.Samples = b
				}
				// Unbounded trees walk to the engine's step default on most
				// schedules; bound the smoke's runs so -allspecs stays quick.
				// The bound is a cell parameter, so the label and the -json
				// record name it.
				if spec.Unbounded(s) && p[spec.ParamSteps] <= 0 {
					p[spec.ParamSteps] = allSpecsSteps
				}
			}
			j, err := service.NewJob(s, p, e, seed)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// allSpecsSteps is the per-run step budget -allspecs gives unbounded specs.
const allSpecsSteps = 800

// sweep runs every job of the invocation through service.Run, the daemon's
// engine dispatch, and reports each one as the daemon's Result record under
// -json or as a text row otherwise. A violating job's record is still
// emitted under -json, so scripted consumers see the verdict and replay
// script on stdout, and then the sweep aborts.
func sweep(ctx context.Context, o options, out io.Writer) error {
	jobs, err := sweepJobs(o)
	if err != nil {
		return err
	}
	if !o.jsonOut {
		if o.sample != "" {
			fmt.Fprintf(out, "schedule sampling: strategy=%s samples=%d seed=%d workers=%d\n",
				o.sample, o.samples, o.seed, o.workers)
			fmt.Fprintf(out, "%-40s %10s %10s %6s %12s %10s %s\n",
				"configuration", "samples", "distinct", "depth", "samples/sec", "elapsed", "verdict")
		} else {
			fmt.Fprintf(out, "exhaustive exploration of %s (prune=%v, workers=%d, maxruns=%d)\n",
				o.object, o.prune, o.workers, o.maxRuns)
			fmt.Fprintf(out, "%-40s %10s %8s %6s %10s %10s %s\n",
				"configuration", "runs", "pruned", "depth", "runs/sec", "elapsed", "verdict")
		}
	}
	for _, j := range jobs {
		est, sst, err := service.Run(ctx, j, nil, nil)
		if o.jsonOut {
			if jerr := json.NewEncoder(out).Encode(service.NewResult(j, est, sst, err)); jerr != nil {
				return jerr
			}
		}
		if err != nil {
			return fmt.Errorf("spec %q %s: %w", j.Spec.Name(), j.Params.Text(j.Spec), err)
		}
		if o.jsonOut {
			continue
		}
		if j.Engine.Mode == service.ModeSample {
			printSampled(out, j, sst)
		} else if err := printExplored(ctx, out, o, j, est); err != nil {
			return err
		}
	}
	return nil
}

// printExplored prints an exhaustive job's text row and, under -compare,
// reruns the job on the sequential engine and checks that both walks agree.
func printExplored(ctx context.Context, out io.Writer, o options, j *service.Job, stats explore.Stats) error {
	label := j.Params.Text(j.Spec)
	verdict := "EXHAUSTED"
	if !stats.Exhausted {
		verdict = "partial (bounded)"
	}
	fmt.Fprintf(out, "%-40s %10d %8d %6d %10.0f %10s %s\n",
		label, stats.Runs, stats.Pruned, stats.MaxDepth, stats.RunsPerSec(),
		stats.Elapsed.Round(stats.Elapsed/100+1), verdict)
	if o.dedup {
		fmt.Fprintf(out, "%-40s %s\n", "  (dedup)", stats.Dedup)
	}
	if !o.compare || j.Engine.Workers == 1 {
		return nil
	}
	sj := *j
	sj.Engine.Workers = 1
	seq, _, err := service.Run(ctx, &sj, nil, nil)
	if err != nil {
		return fmt.Errorf("spec %q %s (sequential): %w", j.Spec.Name(), label, err)
	}
	if o.dedup {
		// Parallel dedup run counts are timing-dependent; only the
		// verdict is comparable.
		if seq.Exhausted != stats.Exhausted {
			return fmt.Errorf("%s: parallel/sequential verdict divergence under dedup: par=%v seq=%v",
				label, stats.Exhausted, seq.Exhausted)
		}
	} else if seq.Runs != stats.Runs || seq.Exhausted != stats.Exhausted || seq.Pruned != stats.Pruned {
		return fmt.Errorf("%s: parallel/sequential divergence: par={runs:%d pruned:%d} seq={runs:%d pruned:%d}",
			label, stats.Runs, stats.Pruned, seq.Runs, seq.Pruned)
	}
	fmt.Fprintf(out, "%-40s %10d %8d %6d %10.0f %10s sequential check OK\n",
		"  (sequential)", seq.Runs, seq.Pruned, seq.MaxDepth, seq.RunsPerSec(),
		seq.Elapsed.Round(seq.Elapsed/100+1))
	return nil
}

// printSampled prints a sampling job's text row and, for PCT, the per-run
// bug-detection bound.
func printSampled(out io.Writer, j *service.Job, stats sample.Stats) {
	label := fmt.Sprintf("%s %s", j.Spec.Name(), j.Params.Text(j.Spec))
	fmt.Fprintf(out, "%-40s %10d %10d %6d %12.0f %10s SAMPLED\n",
		label, stats.Samples, stats.Distinct, stats.MaxDepth, stats.SamplesPerSec(),
		stats.Elapsed.Round(stats.Elapsed/100+1))
	if stats.PCTBound > 0 {
		d := j.Engine.Depth
		if d <= 0 {
			d = sample.DefaultDepth
		}
		k := j.Params[spec.ParamSteps]
		if k <= 0 {
			k = sample.DefaultMaxSteps
		}
		fmt.Fprintf(out, "%-40s per-run depth-%d bug bound >= %.3g (n=%d, k=%d; observed depth %d — tighten -steps toward it to sharpen placement and bound)\n",
			"  (pct)", d, stats.PCTBound, stats.Procs, k, stats.MaxDepth)
	}
}
