package explore

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"mpcn/internal/sched"
)

// FuzzParseChoice fuzzes the replay-script syntax both engines print and
// the replays read: ParseChoice never panics and never interns, every entry
// it accepts names a non-negative process and renders back to itself (so
// signed and zero-padded IDs are rejected), and every Choice.String() of a
// non-negative process on an interned label parses back to that Choice,
// while a negative process or an uninterned label is rejected. Choice labels
// range over the first 256 label indices: the interned labels below (and
// whatever else the process interned) plus indices no name was interned
// for, which render as "Label(n)". Interning the fuzzed text instead would
// grow the process-wide intern table by one entry per input.
func FuzzParseChoice(f *testing.F) {
	for _, l := range []string{"ca.propose", "mem[3].write", "a@b", "x)", "run(1@y)", "crash(", "@", " ", "ü.op"} {
		sched.Intern(l)
	}
	f.Add("run(0@ca.propose)", false, 0, uint8(1))
	f.Add("crash(12@mem[3].write)", true, 12, uint8(2))
	f.Add("run(x@y)", false, -1, uint8(255))
	f.Add("crash(@)", true, 1<<40, uint8(0))
	f.Add("run(-7@a@b))", true, -7, uint8(128))
	f.Add("run(-3@x))", false, 3, uint8(3))
	f.Add("crash(+1@ca.propose)", true, 1, uint8(4))
	f.Add("run(007@@)", false, 7, uint8(6))
	f.Add("run(1@no.such.label)", false, 1, uint8(250))
	f.Fuzz(func(t *testing.T, line string, crash bool, proc int, label uint8) {
		interned := sched.NumLabels()
		if c, err := ParseChoice(line); err == nil && (c.String() != line || c.Proc < 0) {
			t.Fatalf("%q parsed to %+v, which renders as %q", line, c, c.String())
		}
		if n := sched.NumLabels(); n != interned {
			t.Fatalf("parsing %q interned %d labels", line, n-interned)
		}
		ch := Choice{Crash: crash, Proc: sched.ProcID(proc), Label: sched.Label(label)}
		got, err := ParseChoice(ch.String())
		valid := proc >= 0 && int(label) < sched.NumLabels()
		if valid && (err != nil || got != ch) {
			t.Fatalf("%q (from %+v) parsed to %+v, %v", ch.String(), ch, got, err)
		}
		if !valid && err == nil {
			t.Fatalf("%q (from %+v, a negative process or an uninterned label) parsed to %+v", ch.String(), ch, got)
		}
	})
}

// FuzzReplayScript fuzzes strict replay with arbitrary scripts, one entry
// per line, on a two-process read-modify-write cell: replay never panics,
// and a script it accepts is reproduced — the run's trace is the script's
// run entries, and every crash entry's process crashed in front of the
// entry's label.
func FuzzReplayScript(f *testing.F) {
	mk := rmwSession(2, nil)
	errWitness := errors.New("witness")
	for _, crashed := range []bool{false, true} {
		s := mk()
		s.Check = func(res *sched.Result) error {
			if (res.Crashes > 0) == crashed {
				return errWitness
			}
			return nil
		}
		var pe *PropertyError
		if _, err := ExploreSession(s, Config{MaxCrashes: 1, Workers: 1}); !errors.As(err, &pe) {
			f.Fatalf("seed exploration: %v", err)
		}
		f.Add(strings.Join(pe.Script, "\n"))
	}
	f.Add("run(0@(start))\nrun(5@shared.read)")
	f.Add("run(0@(start))\nrun(0@shared.write)\nrun(0@shared.write)\nrun(1@(start))\nrun(1@shared.read)\nrun(1@shared.write)")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		script := strings.Split(text, "\n")
		res, err := ReplayScript(mk(), script, 64)
		if err != nil {
			return
		}
		var runs []sched.TraceEntry
		crashes := 0
		for _, line := range script {
			c, err := ParseChoice(line)
			if err != nil {
				t.Fatalf("strict replay accepted the entry %q: %v", line, err)
			}
			if !c.Crash {
				runs = append(runs, sched.TraceEntry{Proc: c.Proc, Label: c.Label})
				continue
			}
			crashes++
			if o := res.Outcomes[c.Proc]; o.Status != sched.StatusCrashed || o.LastLabel != c.Label {
				t.Fatalf("%q replayed to %v at %v", line, o.Status, o.LastLabel)
			}
		}
		if !slices.Equal(runs, res.Trace) || crashes != res.Crashes {
			t.Fatalf("script %q replayed to trace %v with %d crashes", script, res.Trace, res.Crashes)
		}
	})
}

// TestReplayLoose: loose replay follows the script's process choices
// whatever their labels, skips entries whose target is not runnable, and
// completes the run with the lowest runnable process; strict replay rejects
// the same script.
func TestReplayLoose(t *testing.T) {
	mk := rmwSession(2, nil)
	script := []string{"run(1@shared.write)", "run(1@shared.write)", "run(1@shared.write)", "run(1@shared.write)", "run(0@(start))"}
	res, err := ReplayLoose(mk(), script, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, te := range res.Trace {
		got = append(got, Choice{Proc: te.Proc, Label: te.Label}.String())
	}
	want := []string{"run(1@(start))", "run(1@shared.read)", "run(1@shared.write)", "run(0@(start))", "run(0@shared.read)", "run(0@shared.write)"}
	if !slices.Equal(got, want) {
		t.Fatalf("loose replay ran\n%v\nwant\n%v", got, want)
	}
	if _, err := ReplayScript(mk(), script, 0); err == nil {
		t.Fatal("strict replay accepted a script whose labels do not match")
	}
	past := append(slices.Clone(script), "run(0@shared.read)", "run(0@shared.write)", "nonsense")
	if _, err := ReplayLoose(mk(), past, 0); err == nil {
		t.Fatal("loose replay accepted an unparseable entry past the run's end")
	}
}
