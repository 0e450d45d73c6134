package service

import (
	"testing"

	"mpcn/internal/sched"
)

// TestPoolReuse: a released healthy session is reused by the next acquire of
// the same process count; a different count spawns fresh.
func TestPoolReuse(t *testing.T) {
	p := NewSessionPool(2)
	defer p.Close()

	a, err := p.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(a)
	b, err := p.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same-shape acquire did not reuse the parked session")
	}

	c, err := p.Acquire(3)
	if err != nil {
		t.Fatal(err)
	}
	if c == b {
		t.Error("different-shape acquire reused a mismatched session")
	}
	p.Release(b)
	p.Release(c)

	st := p.Stats()
	if st.Reused != 1 || st.Spawned != 2 || st.Idle != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPoolCapacityAndForeignSessions: surplus releases close instead of
// parking, and sessions the pool never spawned are never recycled.
func TestPoolCapacityAndForeignSessions(t *testing.T) {
	p := NewSessionPool(1)
	defer p.Close()

	a, err := p.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(a) // parks (capacity 1)
	p.Release(b) // surplus: closed
	if st := p.Stats(); st.Discarded != 1 || st.Idle != 1 {
		t.Fatalf("stats = %+v", st)
	}

	foreign, err := sched.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(foreign)
	if st := p.Stats(); st.Discarded != 2 || st.Idle != 1 {
		t.Fatalf("foreign session not discarded: %+v", st)
	}
}

// TestPoolClose: Close drains the idle sessions; later releases close their
// sessions instead of parking them.
func TestPoolClose(t *testing.T) {
	p := NewSessionPool(4)
	a, err := p.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(a)
	p.Close()
	if st := p.Stats(); st.Idle != 0 {
		t.Fatalf("idle sessions survive Close: %+v", st)
	}
	p.Release(b)
	if st := p.Stats(); st.Idle != 0 || st.Discarded == 0 {
		t.Fatalf("post-Close release parked: %+v", st)
	}
}
