// Package sched provides a deterministic single-runner scheduler for
// simulating asynchronous crash-prone shared-memory computations.
//
// The package implements the execution substrate of the ASM(n, t, x) model of
// Imbs & Raynal, "The Multiplicative Power of Consensus Numbers" (2010): a set
// of n asynchronous sequential processes, each executing a sequence of atomic
// steps, of which up to t may crash at arbitrary points chosen by an
// adversary.
//
// Exactly one simulated process executes at any time: each process runs as
// a coroutine, and a scheduling token passes from process to process, the
// holder deciding the next grant, so runs are fully deterministic given the
// adversary (and its seed). Shared objects mark their linearization points by
// calling Env.Step(label) — or its allocation-free form Env.StepL with a
// pre-interned Label; everything a process executes between two Step calls is
// a single atomic step of the model. The adversary observes the label each
// parked process is about to execute, which allows failure-injection tests to
// crash a process "while it is inside" a specific operation, exactly as the
// paper's lemmas require.
//
// Two entry points share the same machinery: Run executes one run on a fresh
// runtime, while a Session keeps its processes parked between runs and is
// reset per run — the zero-respawn fast path replay engines
// (internal/explore) are built on.
//
// Crashes are delivered as a private panic sentinel raised from inside Step;
// the per-process wrapper recovers it. Code running under the scheduler must
// therefore not recover blindly: use IsCrash to re-raise crash panics when a
// framework (such as a coroutine scheduler) interposes its own recover.
package sched

import (
	"errors"
	"fmt"
)

// ProcID identifies a simulated process. IDs are dense and start at 0.
type ProcID int

// Status describes the final state of a simulated process after a run.
type Status int

const (
	// StatusDecided means the process decided a value and its body returned.
	StatusDecided Status = iota + 1
	// StatusHalted means the body returned without deciding.
	StatusHalted
	// StatusCrashed means the adversary crashed the process.
	StatusCrashed
	// StatusBlocked means the process was still live when the step budget was
	// exhausted (it was reaped by the runtime, not crashed by the adversary).
	StatusBlocked
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case StatusDecided:
		return "decided"
	case StatusHalted:
		return "halted"
	case StatusCrashed:
		return "crashed"
	case StatusBlocked:
		return "blocked"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Proc is the body of a simulated process.
type Proc func(e *Env)

// DefaultMaxSteps bounds runs whose configuration leaves MaxSteps at zero.
const DefaultMaxSteps = 1 << 21

// StartLabel is the synthetic label every process is parked on before its
// body begins (interned as LabelStart). The grant of this pseudo-step is not
// counted in step totals; adversaries observe it as the pending label of
// processes that have not yet taken a real step.
const StartLabel = "(start)"

// Config parameterizes a run.
type Config struct {
	// Adversary chooses the interleaving and the crashes. When nil, a
	// seeded Random adversary (no crashes) is used.
	Adversary Adversary
	// Seed seeds the default adversary when Adversary is nil.
	Seed int64
	// MaxSteps bounds the total number of scheduled steps; zero means
	// DefaultMaxSteps. When the budget is exhausted the run stops and every
	// live process is reported as StatusBlocked.
	MaxSteps int
	// MaxCrashes, when positive, makes the run fail with an error if the
	// adversary crashes more than this many processes. It guards experiment
	// code against adversaries that violate the model's resilience bound t.
	MaxCrashes int
	// TraceCapacity, when positive, records up to that many (proc, label)
	// entries of the global schedule in the Result.
	TraceCapacity int
	// Observe enables per-process observation digests: every value a shared
	// object returns from shared state (it reports them via sched.Observe)
	// is folded into the calling process's FP, exposed to adversaries as
	// View.Obs. A process's local state is a deterministic function of its
	// code position and its observation sequence, so the digests let replay
	// engines fingerprint in-flight local state without seeing it — the
	// completeness backbone of explore.Config.Dedup. Off by default: the only
	// cost when off is a branch per observation point.
	Observe bool
}

// TraceEntry records one scheduled step.
type TraceEntry struct {
	Proc  ProcID
	Label Label
}

// Outcome is the per-process summary of a run.
type Outcome struct {
	// Status is the final lifecycle state.
	Status Status
	// Decided reports whether the process called Decide before the run ended
	// (a process that decided and later crashed keeps Decided == true, as in
	// the model: a written output is not undone by a subsequent crash).
	Decided bool
	// Value is the decided value; meaningful only when Decided is true.
	Value any
	// Steps is the number of steps the process executed.
	Steps int
	// LastLabel is the label of the last step the process was granted, or the
	// label it was about to execute when it crashed or was reaped.
	LastLabel Label
}

// Result summarizes a completed run. Results returned by Session.Run are
// pooled: the struct and its slices are overwritten by the session's next
// run. Results returned by the one-shot Run are never reused.
type Result struct {
	// Outcomes has one entry per process.
	Outcomes []Outcome
	// Steps is the total number of scheduled steps.
	Steps int
	// Crashes is the number of processes the adversary crashed.
	Crashes int
	// BudgetExhausted reports whether the run stopped on the step budget.
	BudgetExhausted bool
	// Trace is the recorded schedule prefix (empty unless requested).
	Trace []TraceEntry
}

// NumDecided returns how many processes decided.
func (r *Result) NumDecided() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Decided {
			n++
		}
	}
	return n
}

// DecidedValues returns the decided values in process order, skipping
// processes that did not decide.
func (r *Result) DecidedValues() []any {
	vs := make([]any, 0, len(r.Outcomes))
	for _, o := range r.Outcomes {
		if o.Decided {
			vs = append(vs, o.Value)
		}
	}
	return vs
}

// DistinctDecided returns the number of distinct decided values. Values are
// compared with ==, so decided values must be comparable.
func (r *Result) DistinctDecided() int {
	seen := make(map[any]struct{})
	for _, o := range r.Outcomes {
		if o.Decided {
			seen[o.Value] = struct{}{}
		}
	}
	return len(seen)
}

type eventKind int

const (
	evPark eventKind = iota + 1
	evDone
)

type event struct {
	id      ProcID
	kind    eventKind
	label   Label
	crashed bool
	failure any // non-nil when the body panicked with a genuine error
}

type grantMsg struct {
	crash bool
}

// crashSentinel is the private panic value used to unwind crashed processes.
type crashSentinel struct{ id ProcID }

// IsCrash reports whether a recovered panic value was raised by the runtime
// to simulate a crash. Frameworks that recover panics on behalf of process
// code (for example coroutine schedulers) must re-raise such values with
// panic(v) so the crash reaches the process wrapper.
func IsCrash(v any) bool {
	_, ok := v.(crashSentinel)
	return ok
}

type procState int

const (
	stateParked procState = iota + 1
	stateRunning
	stateDone
)

// ErrNoProcs is returned by Run and NewSession when no process bodies are
// supplied.
var ErrNoProcs = errors.New("sched: no processes")

// Run executes the given process bodies to completion under cfg and returns
// the per-process outcomes. It returns an error if a body panics with a
// non-crash value, or if the adversary misbehaves (crashes more than
// MaxCrashes processes when that bound is set).
//
// Run is the one-shot entry point: it builds a Session, runs once and tears
// the session down. Callers executing many runs over the same process count
// should hold a Session and call its Run method instead.
func Run(cfg Config, bodies []Proc) (*Result, error) {
	s, err := NewSession(len(bodies))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	// The session is discarded after this run, so the pooled Result is
	// effectively fresh and safe to hand out.
	return s.Run(cfg, bodies)
}
