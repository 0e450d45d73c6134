// Replay of decision scripts. Both engines hand a property violation back
// as a script of Choice.String entries (PropertyError.Script). One follower
// adversary plays a script against a fresh run of the harness, under one of
// two contracts. Strict replay (ReplayScript) proves the script is a schedule
// of the harness, but it cannot replay a shortened script: dropping one
// decision shifts every later control point, so the remaining labels no
// longer match. Loose replay (ReplayLoose) keeps only the process choices,
// which is what lets MinimizeScript shrink a witness to the ordering
// constraints the violation needs.

package explore

import (
	"fmt"
	"slices"

	"mpcn/internal/sched"
)

// follower is the replay adversary of both contracts. It parses each entry
// when it reaches it: by then the harness is built and the target has
// parked on its label, so labels Env.Step interns lazily resolve too.
type follower struct {
	script []string
	loose  bool
	pos    int
	err    error // the first divergence (strict) or unparseable entry
}

// fail records err and falls back to the default decision: the run must
// still finish for the runtime's sake, and replay surfaces f.err after it.
func (f *follower) fail(err error) sched.Decision {
	if f.err == nil {
		f.err = err
	}
	return sched.Decision{}
}

// Next implements sched.Adversary.
func (f *follower) Next(v *sched.View) sched.Decision {
	for f.pos < len(f.script) {
		step := f.pos
		f.pos++
		c, err := ParseChoice(f.script[step])
		switch {
		case err != nil:
			return f.fail(err)
		case !slices.Contains(v.Runnable, c.Proc):
			if f.loose {
				continue
			}
			return f.fail(fmt.Errorf("explore: script step %d targets process %d, which is not runnable", step, c.Proc))
		case !f.loose && v.Pending[c.Proc] != c.Label:
			return f.fail(fmt.Errorf("explore: script step %d expects process %d at %q, runtime has it at %q",
				step, c.Proc, c.Label, v.Pending[c.Proc]))
		case c.Crash:
			return sched.CrashDecision(c.Proc)
		}
		return sched.RunDecision(c.Proc)
	}
	if f.loose {
		return sched.Decision{} // the default: lowest runnable process
	}
	return f.fail(fmt.Errorf("explore: script exhausted after %d decisions but the run needs more", len(f.script)))
}

// replay runs a fresh run of sess under a follower of script and closes
// sess. maxSteps <= 0 selects the engines' default budget. The Result
// records the run's whole Trace.
func replay(sess Session, script []string, maxSteps int, loose bool) (*sched.Result, error) {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	if sess.Close != nil {
		defer sess.Close()
	}
	bodies := sess.Make()
	f := &follower{script: script, loose: loose}
	res, err := sched.Run(sched.Config{
		Adversary: f, MaxSteps: maxSteps, Observe: true,
		TraceCapacity: maxSteps + len(bodies), // every step plus the start grants
	}, bodies)
	switch {
	case err != nil:
		return nil, fmt.Errorf("explore: script replay failed: %w", err)
	case f.err != nil:
		return nil, f.err
	case !loose && f.pos != len(script):
		return nil, fmt.Errorf("explore: run consumed %d of %d script decisions", f.pos, len(script))
	}
	for _, s := range script[f.pos:] { // loose: the entries the run ended before
		if _, err := ParseChoice(s); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ReplayScript re-executes one decision script (PropertyError.Script, or a
// sample.Config.OnSample script) against a fresh run of sess under the
// strict contract and returns the run's Result, its Trace included. The
// caller runs sess.Check itself: the checker closures read harness state the
// replayed Make populated; the run over, sess is closed (Session.Close).
// maxSteps <= 0 selects the engines' default budget. Any divergence between the script and the runtime (a malformed
// entry, a wrong label, a non-runnable target, leftover or missing
// decisions) is an error: the script then does not describe a schedule of
// this session.
func ReplayScript(sess Session, script []string, maxSteps int) (*sched.Result, error) {
	return replay(sess, script, maxSteps, false)
}

// ReplayLoose re-executes a decision script against a fresh run of sess
// under the loose contract: only the script's process choices are followed,
// unrunnable targets are skipped, and the run is completed with the default
// schedule once the script runs out. Every entry must still parse. The
// caller runs sess.Check itself, as with ReplayScript.
func ReplayLoose(sess Session, script []string, maxSteps int) (*sched.Result, error) {
	return replay(sess, script, maxSteps, true)
}

// MinimizeScript greedily shrinks a violating decision script to the
// ordering constraints the violation needs: it repeatedly tries dropping
// each line, replaying the shortened script with ReplayLoose, and keeps any
// removal under which sess.Check still returns an error accepted by
// matches, iterating to a fixed point (one-line-removal minimality under
// the loose contract). The input script must itself reproduce a matching
// verdict under loose replay; the returned script always does.
func MinimizeScript(sess Session, script []string, maxSteps int, matches func(error) bool) ([]string, error) {
	reproduces := func(s []string) (bool, error) {
		res, err := ReplayLoose(sess, s, maxSteps)
		if err != nil {
			return false, err
		}
		return matches(sess.Check(res)), nil
	}
	if ok, err := reproduces(script); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("explore: script does not reproduce the verdict under loose replay")
	}
	cur := slices.Clone(script)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); {
			cand := slices.Delete(slices.Clone(cur), i, i+1)
			ok, err := reproduces(cand)
			if err != nil {
				return nil, err
			}
			if ok {
				cur = cand
				changed = true
				continue // same index now holds the next line
			}
			i++
		}
	}
	return cur, nil
}
