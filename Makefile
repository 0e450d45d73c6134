# Development entry points. CI should run:
#   make build vet test explore-smoke   (test job)
#   make bench-check                    (test job)
#   make alloc-check                    (test job)
#   make fp-quality fuzz-fp fuzz-script fuzz-job fuzz-grid (test job)
#   make store-race                     (test job)
#   make throughput-gate                (test job)
#   make sample-smoke service-smoke     (test job)
#   make spec-conformance               (test job)
#   make symmetry-conformance           (test job)
#   make weakmem-conformance            (test job)
#   make docs-check                     (docs/health job)
GO ?= go

.PHONY: build vet test alloc-check fp-quality fuzz-fp fuzz-script fuzz-job fuzz-grid store-race bench bench-check throughput-gate profile explore-smoke sample-smoke service-smoke spec-conformance symmetry-conformance weakmem-conformance experiments docs-check loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The parallel explorer is the repository's only real concurrency; keep the
# whole suite race-clean.
test: build vet
	$(GO) test -race ./...

# Allocation checks: the testing.AllocsPerRun tests of the fold path (every
# object package's Fingerprint and observed reads allocate nothing, on a
# memoized digest's miss and hit alike, nor do the session harnesses'
# incremental log digests or the registers and queue harnesses' Make) and
# the per-sample bounds of sampling passes with coverage: commitadopt/swarm
# (0.05 allocations per sample), bg/pct (15) and detector/pct (1). They
# are built with !race, since allocation counts mean nothing under the race
# detector, so `make test` never runs them.
alloc-check: build
	$(GO) test -count=1 -run Allocs ./internal/...

# Hash-quality battery of the fingerprint fold: 2^24 structured sequences
# checked for 64-bit collisions, 32-bit-truncation collisions against the
# birthday bound, and Sum's per-bit avalanche. Built !race like the
# allocation checks (the race detector only slows single-goroutine
# arithmetic), so `make test` never runs it.
fp-quality: build
	$(GO) test -count=1 -run 'TestFPQuality|TestFPAvalanche' ./internal/sched

# Fuzz the fingerprint layer for 30 s: Mix and each lane's Word round stay
# bijections, orbit lanes stay permutation-invariant, and string splits and
# type tags stay apart (internal/sched/fingerprint_fuzz_test.go).
fuzz-fp:
	$(GO) test -run '^$$' -fuzz FuzzFP -fuzztime 30s ./internal/sched

# Fuzz the replay scripts for 30 s each (internal/explore/replay_test.go):
# parsing never panics, accepts only entries that render back to themselves,
# and every run(p@label)/crash(p@label) entry the engines render parses back
# to the same choice; strict replay of an arbitrary script on a small cell
# never panics and either errors or reproduces the script.
fuzz-script:
	$(GO) test -run '^$$' -fuzz '^FuzzParseChoice$$' -fuzztime 30s ./internal/explore
	$(GO) test -run '^$$' -fuzz '^FuzzReplayScript$$' -fuzztime 30s ./internal/explore

# Fuzz the daemon's job admission for 30 s (internal/service/fuzz_test.go),
# the POST /jobs decode and Prepare path that cmd/explore's cells share:
# arbitrary bytes decoded into a Request never make Prepare panic, every
# rejection is a *RequestError, and an accepted job prepared again from its
# Result's canonical spec, params, engine and seed keeps its Key.
fuzz-job:
	$(GO) test -run '^$$' -fuzz '^FuzzPrepare$$' -fuzztime 30s ./internal/service

# Fuzz the parameter-grid parsing for 30 s (internal/explore/spec/fuzz_test.go),
# the spec.TextGrid step of cmd/explore's -set flags and of Prepare: arbitrary
# settings text never makes TextGrid (or Grid) panic, and an accepted grid
# rendered back to text parses to the same grid.
fuzz-grid:
	$(GO) test -run '^$$' -fuzz '^FuzzTextGrid$$' -fuzztime 30s ./internal/explore/spec

# Race shake of the concurrent paths: the visited store's lock-free probes
# (hits below a shard's ceiling write no shared memory; ceiling tables are
# probed under the shard mutex), the scheduler's in-place adversary
# consultations and process-to-process token handoffs, the label table's
# lock-free reads of facts published while other labels are interned
# (independence judgments and orbit control points), the engine core's
# worker pool under both engines (the engine-contract tables: cancellation,
# progress, leases, panic re-raise, goroutine leaks; and the sampler's whole
# suite), and the daemon's Submit under concurrent submissions to a full
# queue (every accepted job, and no bounced one, listed by GET /jobs), run
# twice at 1, 2 and 4 CPUs so the race detector sees several interleavings
# of each. -short trims the n=3 cells of the
# sequential dedup coverage battery and the larger points of the walk
# goldens, which `make test` runs in full; at six race runs they would take
# most of an hour.
store-race: build
	$(GO) test -race -short -count=2 -cpu 1,2,4 -run 'Dedup|Visited|Equivalence|AdversaryPanic|Sticky|Context|ProgressReleasesStore|RuntimeSourceLeases|CheckerPanic|JobsLeak|LabelFactsConcurrentIntern' ./internal/explore ./internal/sched
	$(GO) test -race -short -count=2 -cpu 1,2,4 ./internal/explore/sample
	$(GO) test -race -short -count=2 -cpu 1,2,4 -run 'SubmitConcurrent' ./internal/service

bench:
	$(GO) test -bench=. -benchmem .

# The repository benchmark (bench/, run with bash bench/run.sh) is a module
# of its own, so the root build and tests never compile it: vet it and run
# its short self-test, which builds it against the current internal packages.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Throughput regression gate (CI's test job): exhaust the tracked cell
# (commit-adopt, n=3, no crashes, 756,756 runs) with the sequential engine
# and fail if the best of the runs falls below the floor constant in
# bench_test.go (trackedCellFloor). The floor sits far below any healthy
# host, so the gate catches order-of-magnitude hot-path regressions, not
# runner-speed drift.
throughput-gate: build
	$(GO) test -run '^$$' -bench '^BenchmarkTrackedCell$$' -benchtime 3x .

# CPU+heap profile of the tracked throughput cell (the profile-first loop of
# docs/PERFORMANCE.md): writes cpu.prof / mem.prof for `go tool pprof`.
profile: build
	$(GO) run ./cmd/explore -object commitadopt -n 3 -workers 1 -cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof cpu.prof"

# Spec-registry conformance (CI's test job): the spectest suite — checker
# and fingerprint determinism, dedup/prune outcome-set preservation (dedup
# also on an evicting 16-slot store), sequential/parallel equality,
# capability honesty — over every registered spec on a bounded grid, plus
# the dedup reduction gate (best runs-explored reduction >= 2x) and the memo
# battery (at every fingerprinted boundary of sampled runs and of a dedup
# walk, the memoized harness digest equals a fresh session's after a strict
# replay of the same prefix), and the quiet-replay differential (every store
# key of a batched dedup walk, which skips observation folds on replayed
# prefixes and below cuts, equals a fully observed NoBatch walk's;
# internal/explore/quiet_test.go), and the walk goldens (every sequential
# dedup walk, which probes the store only at branching nodes, keeps the
# runs, pruned, depth, exhaustion and cut counts recorded when it probed
# every new node, with no more lookups; internal/explore/walkgolden_test.go).
spec-conformance: build
	$(GO) test -race -count=1 -run 'TestConformanceAllSpecs|TestDedupReductionGate|TestMemoDigestsMatchFresh|TestDedupQuietReplayMatchesObserved|TestDedupWalkGoldens' ./internal/explore/spectest ./internal/explore

# Symmetry-soundness gate (CI's test job): the spectest symmetry battery
# (orbit-canonical outcome preservation, permuted-script verdict invariance,
# byte-identical counterexamples) and the strict orbit collapse on
# commitadopt n=3 (TestSymmetryOrbitCollapse).
symmetry-conformance: build
	$(GO) test -race -count=1 -run 'TestSymmetry|TestPermuteScript|TestVisitedStore|TestOrbit' ./internal/explore/spectest ./internal/explore ./internal/sched

# Weak-memory differential gate (CI's test job): the spectest battery —
# atomic anchors (golden visited counts, default == explicit atomic),
# the regular-only monotonicity witness found/replayed/minimized, the
# tso-only SB split — plus the backend unit/race tests of internal/reg and
# the parallel weak-backend hammers (see docs/WEAK_MEMORY.md).
weakmem-conformance: build
	$(GO) test -race -count=1 -run 'TestBackendSpecsEnumerated|TestAtomicAnchors|TestRegularOnlyWitness|TestStoreBufferDifferential' ./internal/explore/spectest
	$(GO) test -race -count=1 ./internal/reg
	$(GO) test -race -count=1 -run 'TestWeakBackend' ./internal/explore/sessions

# Bounded exhaustive-exploration smoke: every cell is capped by -maxruns, so
# this can never hang CI even on pathological trees (the BG cell alone would
# otherwise be astronomically deep). The detector row's pruned and depth
# columns cannot be diffed between two builds, nor between two runs: its
# walk is parallel and truncated by -maxruns, so it always takes 2000 runs,
# but which runs the workers took, and so what they pruned and how deep
# they went, depends on their timing. A -dedup row's store summary prints
# slots=, the slots the store's tables hold when the cell ends, beside
# occupied=states/ceiling: slots × 16 B / occupied is what each resident
# state cost (24 B a slot in a shard grown to its ceiling, which also keeps
# an LRU stamp per slot).
explore-smoke: build
	$(GO) run ./cmd/explore -list
	$(GO) run ./cmd/explore -object safe -n 2 -crashes 0,1 -maxruns 5000 -compare
	$(GO) run ./cmd/explore -object xsafe -n 2 -x 1,2 -crashes 1 -maxruns 5000 -prune
	$(GO) run ./cmd/explore -object commitadopt -n 2,3 -maxruns 5000 -prune
	$(GO) run ./cmd/explore -object commitadopt -n 2,3 -maxruns 5000 -dedup -compare
	$(GO) run ./cmd/explore -object xsafe -n 2 -x 1,2 -crashes 1 -maxruns 5000 -prune -dedup
	$(GO) run ./cmd/explore -object queue -n 3 -set ops=1 -crashes 0,1 -maxruns 20000 -dedup
	$(GO) run ./cmd/explore -object xcompete -n 3 -x 2 -crashes 1 -maxruns 5000 -prune -dedup
	$(GO) run ./cmd/explore -object registers -n 2 -set backend=regular -crashes 0 -maxruns 20000 -compare
	$(GO) run ./cmd/explore -object registers -n 2 -set backend=regular -crashes 0 -maxruns 20000 -dedup -compare
	$(GO) run ./cmd/explore -object registers -n 2 -set backend=tso -crashes 0,1 -maxruns 20000 -dedup
	$(GO) run ./cmd/explore -object mlset -n 3 -set l=2 -crashes 0,1 -maxruns 20000 -prune -dedup
	$(GO) run ./cmd/explore -object renaming -n 2 -crashes 0,1 -maxruns 20000 -prune -dedup
	$(GO) run ./cmd/explore -object hierarchy -set base=tas,queue -crashes 0 -maxruns 20000 -prune -dedup
	$(GO) run ./cmd/explore -object universal -n 2 -set ops=1 -crashes 0,1 -maxruns 20000 -prune -dedup
	$(GO) run ./cmd/explore -object detector -n 2 -x 1 -steps 400 -maxruns 2000 -prune
	$(GO) run ./cmd/explore -object bg -n 2 -t 1 -steps 400 -maxruns 2000
	$(GO) run ./cmd/simrun -sim forward -n 4 -t1 3 -x1 2 -t2 1 -trace 5
	$(GO) run ./cmd/simrun -sim bg -n 4 -t1 1 -seed 7

# Bounded seeded schedule-sampling smoke: one PCT pass over EVERY registered
# spec (including BG, which exhaustive smokes can only truncate) at each
# spec's declared sampling budget, capped by -samples. Deterministic under
# the fixed seed; any property violation prints the reproducing script and
# (seed, index) pair.
sample-smoke: build
	$(GO) run ./cmd/explore -sample pct -allspecs -samples 2000 -seed 1
	$(GO) run ./cmd/explore -object bg -n 2 -t 1 -steps 400 -crashes 1 -sample swarm -samples 500 -seed 1
	$(GO) run ./cmd/explore -object commitadopt -n 3 -crashes 1 -sample walk -samples 2000 -seed 1

# End-to-end service smoke (CI's test job): the exploredd daemon on a
# loopback ephemeral port driven over HTTP — a violating exhaustive job with
# its replay artifact, a seeded BG sampling job resolving the spec's declared
# budgets, an identical resubmission answered from the content-addressed
# cache (hit counter asserted), cancellation of queued and running jobs, and
# the typed admission rejections — plus the CLI -json ↔ daemon record-parity
# battery (byte-identical replay scripts under the sequential engine). See
# docs/SERVICE.md.
service-smoke: build
	$(GO) test -race -count=1 -run TestServiceSmoke ./internal/service ./cmd/exploredd ./cmd/explore

# Docs/health gate (CI's docs job): formatting must be clean, vet must pass,
# and every relative link in README.md and docs/*.md must resolve.
docs-check:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/linkcheck README.md docs examples/README.md

experiments:
	$(GO) run ./cmd/experiments

# Size of the program: non-test Go lines outside bench/ (a module of its
# own). Simplicity changes report this figure before and after.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
