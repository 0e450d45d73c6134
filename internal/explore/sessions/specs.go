package sessions

// Registration of the agreement/simulation harnesses of this package with
// the spec registry: one Decl per scenario, declaring the parameter domains
// the CLI, the benchmarks, the E16 experiment rows and the conformance suite
// all parse against. The object-layer scenarios live in objects.go.

import (
	"fmt"

	"mpcn/internal/explore"
	"mpcn/internal/explore/spec"
	"mpcn/internal/reg"
)

func init() {
	spec.Register(spec.Decl{
		Name: "safe",
		Doc:  "safe_agreement (Fig. 1): agreement + validity on every schedule, crash-blocking allowed",
		Params: []spec.Param{
			{Name: "n", Doc: "proposing processes", Default: 2, Min: 1, Max: spec.NoMax},
			{Name: "probes", Doc: "bounded TryDecide probes per process", Default: 2, Min: 1, Max: spec.NoMax},
		},
		New: func(p spec.Params) explore.Session {
			return SafeAgreement(p["n"], p["probes"], nil)()
		},
		Dedup: true,
	})

	spec.Register(spec.Decl{
		Name: "xsafe",
		Doc:  "x_safe_agreement (Fig. 6): agreement + validity through the x_compete/XCONS funnel",
		Params: []spec.Param{
			{Name: "n", Doc: "simulator population", Default: 2, Min: 1, Max: spec.NoMax},
			{Name: "x", Doc: "consensus number of the base objects", Default: 1, Min: 1, Max: spec.NoMax},
			{Name: "probes", Doc: "bounded TryDecide probes per process", Default: 2, Min: 1, Max: spec.NoMax},
		},
		Validate: func(p spec.Params) error {
			if p["x"] > p["n"] {
				return fmt.Errorf("need 1 <= x <= n, got x=%d n=%d", p["x"], p["n"])
			}
			return nil
		},
		New: func(p spec.Params) explore.Session {
			return XSafe(p["n"], p["x"], p["probes"])()
		},
		Dedup: true,
	})

	spec.Register(spec.Decl{
		Name: "commitadopt",
		Doc:  "commit-adopt: the four CA properties + wait-freedom on every schedule",
		Params: []spec.Param{
			{Name: "n", Doc: "proposing processes", Default: 2, Min: 1, Max: spec.NoMax},
		},
		New: func(p spec.Params) explore.Session {
			return CommitAdopt(p["n"])()
		},
		Dedup: true,
		// Symmetric: identical bodies up to the proposal value (erased by the
		// session's Canon), per-process shared state (phase cells, done flags)
		// lane-routed, checker counts commits without naming processes.
		Symmetry: true,
	})

	// BG sessions carry no Fingerprint (the engine's internal state is not
	// fingerprintable yet), so Dedup stays false and spec.Config surfaces
	// explore.ErrNoFingerprint for -dedup requests. The decision tree is
	// astronomically deep even at the minimum configuration: drivers bound it
	// with MaxRuns (coverage smokes report exhausted=false). Schedule
	// sampling is the first-class way in: the Sampling declaration bounds the
	// smoke/bench budgets (BG runs are hundreds of steps long, so a small
	// sample count already buys minutes of schedule diversity) and spreads
	// the PCT change points across the deep runs.
	spec.Register(spec.Decl{
		Name: "bg",
		Doc:  "Borowsky-Gafni simulation: validity + the (t+1)-set bound on simulated decisions",
		Params: []spec.Param{
			{Name: "n", Doc: "simulated processes", Default: 2, Min: 1, Max: spec.NoMax},
			{Name: "t", Doc: "resilience (t+1 simulators)", Default: 1, Min: 0, Max: spec.NoMax},
		},
		Sampling: spec.Sampling{Budget: 1500, Depth: 8},
		Validate: func(p spec.Params) error {
			if p["t"] >= p["n"] {
				return fmt.Errorf("need 0 <= t < n, got t=%d n=%d", p["t"], p["n"])
			}
			// Probe the engine constructor so every config the registry admits
			// is one BG() cannot reject at session-build time.
			_, err := BG(p["n"], p["t"])
			return err
		},
		New: func(p spec.Params) explore.Session {
			mk, err := BG(p["n"], p["t"])
			if err != nil {
				panic(err) // unreachable: Validate probed the constructor
			}
			return mk()
		},
		Dedup:     false,
		Unbounded: true,
	})

	spec.Register(spec.Decl{
		Name: "registers",
		Doc:  "register writers (+optional monotonicity readers): the POR stress and the weak-memory probe",
		Params: []spec.Param{
			{Name: "n", Doc: "writer processes", Default: 3, Min: 1, Max: spec.NoMax},
			{Name: "writes", Doc: "writes per process", Default: 2, Min: 1, Max: spec.NoMax},
			{Name: "readers", Doc: "extra processes double-reading cell 0 (monotonicity property)", Default: 0, Min: 0, Max: spec.NoMax},
			BackendParam(),
		},
		New: func(p spec.Params) explore.Session {
			return Registers(p["n"], p["writes"], p["readers"], reg.Backend(p["backend"]))()
		},
		Dedup: true,
		// Symmetric: every writer runs the same body on its own array cell;
		// written values are step counters, independent of process identity.
		// The capability is declared for the whole domain, but sessions only
		// set Symmetric at the writer-only atomic default — the engine
		// rejects -symmetry on weak-backend or reader-carrying cells.
		Symmetry: true,
	})

	spec.Register(spec.Decl{
		Name: "sb",
		Doc:  "store-buffering litmus (SB): both loads reading 0 is forbidden under atomic registers",
		Params: []spec.Param{
			BackendParam(),
		},
		New: func(p spec.Params) explore.Session {
			return StoreBuffer(reg.Backend(p["backend"]))()
		},
		Dedup: true,
	})
}

// BackendParam is the spec-level declaration of the register memory model:
// a string-domain parameter whose value names are exactly reg.BackendNames
// in encoding order, so spec.Params["backend"] converts to reg.Backend by
// integer cast. Every spec built on reg.BackendArray declares it, keeping
// the CLI syntax (-set backend=regular) uniform across scenarios.
func BackendParam() spec.Param {
	return spec.Param{
		Name:    "backend",
		Doc:     "register memory model (weak backends admit non-atomic behaviours)",
		Default: int(reg.Atomic),
		Values:  reg.BackendNames(),
	}
}
