package coro

import (
	"fmt"
	"runtime"
	"testing"
)

func TestResumeRunsToYield(t *testing.T) {
	var log []int
	th := New(func(y *Yielder) {
		log = append(log, 1)
		y.Yield()
		log = append(log, 2)
		y.Yield()
		log = append(log, 3)
	})
	defer th.Close()
	if th.Done() {
		t.Fatal("new thread should not be done")
	}
	if th.Resume() {
		t.Fatal("thread finished too early")
	}
	if len(log) != 1 || log[0] != 1 {
		t.Fatalf("log = %v, want [1]", log)
	}
	if th.Resume() {
		t.Fatal("thread finished too early")
	}
	if !th.Resume() {
		t.Fatal("thread should be done after third resume")
	}
	if len(log) != 3 {
		t.Fatalf("log = %v, want 3 entries", log)
	}
	if !th.Resume() {
		t.Fatal("resuming a done thread should report done")
	}
}

func TestKillNeverStarted(t *testing.T) {
	ran := false
	th := New(func(y *Yielder) { ran = true })
	th.Kill()
	if !th.Done() {
		t.Fatal("killed thread should be done")
	}
	if ran {
		t.Fatal("killed-before-start thread must not run")
	}
}

func TestKillParked(t *testing.T) {
	reached := false
	th := New(func(y *Yielder) {
		y.Yield()
		reached = true
	})
	defer th.Close()
	th.Resume()
	th.Kill()
	if !th.Done() {
		t.Fatal("killed thread should be done")
	}
	if reached {
		t.Fatal("code after the kill point must not run")
	}
	th.Kill() // killing a done thread is a no-op
}

func TestForeignPanicPropagates(t *testing.T) {
	th := New(func(y *Yielder) {
		y.Yield()
		panic("boom")
	})
	th.Resume()
	defer func() {
		r := recover()
		if r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		if !th.Done() {
			t.Fatal("panicked thread should be done")
		}
	}()
	th.Resume()
	t.Fatal("unreachable")
}

func TestImmediatePanicPropagates(t *testing.T) {
	th := New(func(y *Yielder) { panic(42) })
	defer func() {
		if r := recover(); r != 42 {
			t.Fatalf("recovered %v, want 42", r)
		}
	}()
	th.Resume()
	t.Fatal("unreachable")
}

func TestGroupRoundRobin(t *testing.T) {
	var order []int
	mk := func(id, rounds int) *Thread {
		return New(func(y *Yielder) {
			for i := 0; i < rounds; i++ {
				order = append(order, id)
				y.Yield()
			}
		})
	}
	g := NewGroup([]*Thread{mk(0, 2), mk(1, 2), mk(2, 2)})
	defer g.Close()
	for g.ResumeNext() {
	}
	// Each thread logs once per full resume; round-robin order interleaves.
	want := []int{0, 1, 2, 0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if g.Live() != 0 {
		t.Fatalf("live = %d, want 0", g.Live())
	}
}

func TestGroupSkipsDone(t *testing.T) {
	var order []int
	short := New(func(y *Yielder) { order = append(order, 0) })
	long := New(func(y *Yielder) {
		order = append(order, 1)
		y.Yield()
		order = append(order, 1)
	})
	g := NewGroup([]*Thread{short, long})
	defer g.Close()
	for g.ResumeNext() {
	}
	want := []int{0, 1, 1}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestGroupKillAll(t *testing.T) {
	after := 0
	mk := func() *Thread {
		return New(func(y *Yielder) {
			y.Yield()
			after++
		})
	}
	g := NewGroup([]*Thread{mk(), mk(), mk()})
	defer g.Close()
	g.ResumeNext()
	g.ResumeNext()
	g.KillAll()
	if g.Live() != 0 {
		t.Fatalf("live = %d, want 0", g.Live())
	}
	if after != 0 {
		t.Fatalf("killed threads executed post-yield code %d times", after)
	}
}

func TestKillAllDuringPanicUnwind(t *testing.T) {
	// Simulates the simulator-crash path: one thread panics with a foreign
	// value; the simulator's deferred KillAll must reap the survivors while
	// the panic is in flight.
	sib := New(func(y *Yielder) { y.Yield() })
	bad := New(func(y *Yielder) { y.Yield(); panic("crash") })
	g := NewGroup([]*Thread{sib, bad})
	defer g.Close()
	g.ResumeNext() // starts sib, parks it
	g.ResumeNext() // starts bad, parks it

	defer func() {
		if r := recover(); r != "crash" {
			t.Fatalf("recovered %v, want crash", r)
		}
		if sib.Done() != true {
			t.Fatal("sibling not reaped")
		}
	}()
	func() {
		defer g.KillAll()
		bad.Resume()
	}()
	t.Fatal("unreachable")
}

func TestGroupEmpty(t *testing.T) {
	g := NewGroup(nil)
	if g.ResumeNext() {
		t.Fatal("empty group should have nothing to resume")
	}
	if g.Live() != 0 {
		t.Fatal("empty group should have no live threads")
	}
}

func TestCallRunsOpThenResumesThread(t *testing.T) {
	var log []string
	th := New(func(y *Yielder) {
		log = append(log, "a")
		y.Call(func() { log = append(log, "op1") })
		log = append(log, "b")
		y.Call(func() { log = append(log, "op2") })
		log = append(log, "c")
		y.Yield()
		log = append(log, "d")
	})
	if th.Resume() {
		t.Fatal("thread finished too early")
	}
	// Call does not end a Resume: only Yield (or the body's end) does.
	if got := fmt.Sprint(log); got != "[a op1 b op2 c]" {
		t.Fatalf("log = %s", got)
	}
	if !th.Resume() || fmt.Sprint(log) != "[a op1 b op2 c d]" {
		t.Fatalf("log = %v, done = %v", log, th.Done())
	}
}

// TestCallPanicLeavesThreadParked: an op that panics unwinds the resumer,
// not the thread. The thread stays parked inside Call and not done, so the
// resumer's cleanup still unwinds it with Kill to the run boundary, where
// Close ends its coroutine; marking it done would skip the Kill and leave
// the body parked mid-step.
func TestCallPanicLeavesThreadParked(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		after := false
		th := New(func(y *Yielder) {
			y.Call(func() { panic("step crashed") })
			after = true
		})
		func() {
			defer func() {
				if r := recover(); r != "step crashed" {
					t.Fatalf("recovered %v, want the op's panic", r)
				}
			}()
			th.Resume()
		}()
		if th.Done() {
			t.Fatal("a thread whose op panicked must stay parked, not done")
		}
		th.Kill()
		if !th.Done() || after {
			t.Fatalf("Kill did not reap the parked thread (done=%v, ran on=%v)", th.Done(), after)
		}
		th.Close()
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines %d -> %d: parked threads leaked", before, got)
	}
}

// TestReusableRearms: a thread runs its body again from the start after
// Reset, whether the last body returned or was killed while parked, and
// keeps one coroutine throughout.
func TestReusableRearms(t *testing.T) {
	var log []string
	th := New(func(y *Yielder) {
		log = append(log, "start")
		y.Yield()
		log = append(log, "end")
	})
	defer th.Close()
	for run := 0; run < 3; run++ {
		if th.Resume() || th.Resume() != true {
			t.Fatalf("run %d: the body did not yield once and then finish", run)
		}
		th.Reset()
	}
	th.Resume()
	th.Kill() // parked after "start": unwound, the coroutine kept
	if !th.Done() {
		t.Fatal("killed thread should be done")
	}
	th.Reset()
	th.Resume()
	want := "[start end start end start end start start]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("log = %s, want %s", got, want)
	}
}

// TestReusableKillBeforeStart: killing a thread that was re-armed but not
// resumed must not resume its coroutine, or the new body would start and
// run up to its first yield — a step the next run would then skip.
func TestReusableKillBeforeStart(t *testing.T) {
	starts := 0
	th := New(func(y *Yielder) {
		starts++
		y.Yield()
	})
	defer th.Close()
	th.Resume()
	th.Kill()
	th.Reset()
	th.Kill() // armed, never resumed
	if starts != 1 {
		t.Fatalf("body started %d times, want 1", starts)
	}
	th.Reset()
	th.Resume()
	if starts != 2 {
		t.Fatalf("body started %d times after the re-arm, want 2", starts)
	}
}

// TestReusablePanicRestarts: a body panic ends the coroutine; Reset re-arms
// the thread, whose next Resume starts a new one.
func TestReusablePanicRestarts(t *testing.T) {
	fail := true
	ran := 0
	th := New(func(y *Yielder) {
		ran++
		if fail {
			panic("boom")
		}
	})
	defer th.Close()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		th.Resume()
	}()
	if !th.Done() {
		t.Fatal("panicked thread should be done")
	}
	fail = false
	th.Reset()
	if !th.Resume() || ran != 2 {
		t.Fatalf("re-armed thread did not run to completion (ran %d)", ran)
	}
}

// TestReusableCloseLeaksNothing: Close ends a thread's coroutine
// wherever it is parked — at the run boundary, inside a Call whose op
// panicked, or armed and not yet resumed — and a closed thread is re-armed
// by Reset on a new coroutine.
func TestReusableCloseLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		crash := i%3 == 0
		th := New(func(y *Yielder) {
			y.Call(func() {
				if crash {
					panic("step crashed")
				}
			})
			y.Yield()
		})
		func() {
			defer func() { recover() }()
			th.Resume()
		}()
		crash = false
		switch i % 3 {
		case 1:
			th.Kill() // parked at the run boundary
		case 2:
			th.Kill()
			th.Reset() // armed, not resumed
		}
		th.Close()
		th.Reset()
		if th.Resume() {
			t.Fatal("re-armed thread finished without yielding")
		}
		th.Close()
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines %d -> %d: closed threads leaked", before, got)
	}
}

// TestGroupReset: Reset re-arms every thread of a group and restarts the
// round-robin at the first.
func TestGroupReset(t *testing.T) {
	var order []int
	mk := func(id int) *Thread {
		return New(func(y *Yielder) {
			order = append(order, id)
			y.Yield()
		})
	}
	g := NewGroup([]*Thread{mk(0), mk(1), mk(2)})
	defer g.Close()
	g.ResumeNext()
	g.ResumeNext()
	g.KillAll()
	g.Reset()
	for g.ResumeNext() {
	}
	if got := fmt.Sprint(order); got != "[0 1 0 1 2]" {
		t.Fatalf("order = %s", got)
	}
}
