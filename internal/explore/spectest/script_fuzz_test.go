package spectest

import (
	"testing"

	"mpcn/internal/explore"
	"mpcn/internal/sched"
)

// FuzzParseChoice fuzzes the replay-script syntax both engines print and
// the script replays read: parseChoice never panics, a parsed entry
// re-renders to an entry that parses back to it, and every
// explore.Choice.String() parses back to the same process, kind and label.
// Choice labels range over the first 256 label indices: the interned labels
// below (and whatever else the process interned) plus indices no name was
// interned for, which render as "Label(n)". Interning the fuzzed text
// instead would grow the process-wide intern table by one entry per input.
func FuzzParseChoice(f *testing.F) {
	for _, l := range []string{"ca.propose", "mem[3].write", "a@b", "x)", "run(1@y)", "crash(", "@", " ", "ü.op"} {
		sched.Intern(l)
	}
	f.Add("run(0@ca.propose)", false, 0, uint8(1))
	f.Add("crash(12@mem[3].write)", true, 12, uint8(2))
	f.Add("run(x@y)", false, -1, uint8(255))
	f.Add("crash(@)", true, 1<<40, uint8(0))
	f.Add("run(-7@a@b))", true, -7, uint8(128))
	f.Fuzz(func(t *testing.T, line string, crash bool, proc int, label uint8) {
		if c, err := parseChoice(line); err == nil {
			again, err := parseChoice(c.render())
			if err != nil || again != c {
				t.Fatalf("%q parsed to %+v, whose rendering %q parses to %+v (%v)", line, c, c.render(), again, err)
			}
		}
		ch := explore.Choice{Crash: crash, Proc: sched.ProcID(proc), Label: sched.Label(label)}
		got, err := parseChoice(ch.String())
		if err != nil {
			t.Fatalf("%q (from %+v) does not parse: %v", ch.String(), ch, err)
		}
		if got.crash != ch.Crash || got.id != ch.Proc || got.label != ch.Label.String() {
			t.Fatalf("%q parsed to %+v, want crash=%v id=%d label=%q", ch.String(), got, ch.Crash, ch.Proc, ch.Label.String())
		}
	})
}
