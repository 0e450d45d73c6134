// Weakmemory: the memory model as a checked parameter.
//
// The same exhaustive explorer, the same harnesses, three register
// semantics (-set backend=atomic|regular|tso on the CLI). Two experiments:
//  1. a writer plus a double-reading process: read monotonicity is a
//     theorem under atomic and TSO registers and falsified under regular
//     ones — the explorer finds the new-then-old flicker witness, replays
//     it, and minimizes it to the decisions that matter;
//  2. the SB store-buffering litmus: both loads returning 0 is forbidden
//     under atomic AND regular registers (regular weakens concurrent
//     reads, not store→load order) and reachable under TSO.
//
// Run with: go run ./examples/weakmemory
package main

import (
	"errors"
	"fmt"
	"os"

	"mpcn/internal/explore"
	"mpcn/internal/explore/sessions"
	"mpcn/internal/explore/spec"
	"mpcn/internal/explore/spectest"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "weakmemory: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Reader monotonicity: one writer (one write), one double-reader.
	fmt.Println("registers n=1 writes=1 readers=1 — double-read of cell 0 must be monotonic:")
	regs, err := spec.Lookup("registers")
	if err != nil {
		return err
	}
	var witness []string
	for _, backend := range []string{"atomic", "regular", "tso"} {
		p, err := spectest.BackendParams(regs, backend, spec.Params{"n": 1, "writes": 1, "readers": 1})
		if err != nil {
			return err
		}
		cfg, err := spec.Config(regs, p, explore.Config{Dedup: true})
		if err != nil {
			return err
		}
		st, xerr := explore.ExploreSession(regs.New(p), cfg)
		var pe *explore.PropertyError
		switch {
		case xerr == nil:
			fmt.Printf("  backend=%-8s holds on every schedule (%d runs)\n", backend, st.Runs)
		case errors.As(xerr, &pe):
			fmt.Printf("  backend=%-8s VIOLATED: %v\n", backend, pe.Err)
			witness = pe.Script
		default:
			return xerr
		}
	}

	// Minimize the regular witness to the ordering constraints the flicker
	// window needs; everything else completes with the default schedule.
	if witness == nil {
		return errors.New("expected a regular-backend witness")
	}
	p, err := spectest.BackendParams(regs, "regular", spec.Params{"n": 1, "writes": 1, "readers": 1})
	if err != nil {
		return err
	}
	min, err := explore.MinimizeScript(regs.New(p), witness, 0,
		func(err error) bool { return errors.Is(err, sessions.ErrNonMonotonicRead) })
	if err != nil {
		return err
	}
	fmt.Printf("  witness minimized %d -> %d decisions:\n", len(witness), len(min))
	for _, line := range min {
		fmt.Printf("    %s\n", line)
	}

	// 2. The SB litmus: only TSO reorders the store past the load.
	fmt.Println("\nsb litmus — both loads reading 0 is the forbidden outcome:")
	sb, err := spec.Lookup("sb")
	if err != nil {
		return err
	}
	for _, backend := range []string{"atomic", "regular", "tso"} {
		p, err := spectest.BackendParams(sb, backend, nil)
		if err != nil {
			return err
		}
		cfg, err := spec.Config(sb, p, explore.Config{Dedup: true})
		if err != nil {
			return err
		}
		st, xerr := explore.ExploreSession(sb.New(p), cfg)
		var pe *explore.PropertyError
		switch {
		case xerr == nil:
			fmt.Printf("  backend=%-8s forbidden outcome unreachable (%d runs)\n", backend, st.Runs)
		case errors.As(xerr, &pe):
			fmt.Printf("  backend=%-8s REACHED: %v (script: %v)\n", backend, pe.Err, pe.Script)
		default:
			return xerr
		}
	}
	fmt.Println("\nthe three memory models are pairwise distinguishable: regular alone")
	fmt.Println("breaks reader monotonicity, tso alone breaks sb.")
	return nil
}
