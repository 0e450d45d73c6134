// Package detector implements Ω-based consensus in shared memory — the
// failure-detector boosting context of §1.3: Chandra-Hadzilacos-Toueg showed
// Ω is the weakest failure detector for consensus, and Guerraoui-Kuznetsov
// generalized the result to Ωx boosting consensus number x to x+1. This
// package provides the base case: registers (consensus number 1) plus Ω
// solve consensus for any number of crashes — computability that the
// hierarchy says registers alone can never achieve, demonstrating the
// "boosting" phenomenon the paper situates itself against.
//
// The algorithm is round-based shared-memory Paxos (in the style of
// Gafni-Lamport's Disk Paxos, adapted to a snapshot memory): process i owns
// the rounds r ≡ i (mod n). A round has a read phase (announce r, abort if a
// higher round is visible), an adopt step (take the value written with the
// highest write-round, else the proposal), and a write phase (record the
// value at round r, abort if a higher round intervened). Safety never
// depends on Ω; the oracle only gates who attempts rounds, so once a single
// correct leader is elected its round eventually runs uncontested and
// decides.
package detector

import (
	"fmt"

	"mpcn/internal/sched"
	"mpcn/internal/snapshot"
)

// cell is one process's single-writer component of the consensus memory.
type cell struct {
	rr  int // highest round entered (read phase)
	ww  int // highest round in which a value was written
	vv  any // the value written at round ww
	dec any // decided value, published for the others
}

// Fingerprint implements sched.Fingerprinter so cell observations fold
// without fmt formatting.
func (c cell) Fingerprint(h *sched.FP) {
	h.Int(c.rr)
	h.Int(c.ww)
	h.Value(c.vv)
	h.Value(c.dec)
}

// OmegaConsensus is a consensus object for n processes built from a snapshot
// memory and the runtime's Ω oracle. It tolerates any number of crashes
// (wait-free termination for every correct process), which registers alone
// cannot provide.
type OmegaConsensus struct {
	name string
	n    int
	mem  *snapshot.Primitive[cell]
}

// NewOmegaConsensus returns a consensus object for processes 0..n-1.
func NewOmegaConsensus(name string, n int) *OmegaConsensus {
	if n < 1 {
		panic(fmt.Sprintf("detector: %q needs n >= 1, got %d", name, n))
	}
	return &OmegaConsensus{
		name: name,
		n:    n,
		mem:  snapshot.NewPrimitive[cell](name+".mem", n),
	}
}

// Propose proposes v and returns the decided value. Every correct process
// returns, whatever the crash pattern, thanks to the Ω gate.
func (c *OmegaConsensus) Propose(e *sched.Env, v any) any {
	if v == nil {
		panic(fmt.Sprintf("detector: nil proposal to %s", c.name))
	}
	me := int(e.ID())
	if me >= c.n {
		panic(fmt.Sprintf("detector: process %d outside %s's population %d", me, c.name, c.n))
	}
	my := c.mem // shorthand

	r := me + 1 // rounds are positive and distinct across processes mod n
	for {
		// Adopt a published decision as soon as one is visible. The scan is
		// also this loop's scheduler step, keeping non-leaders live.
		s := my.Scan(e)
		for _, cl := range s {
			if cl.dec != nil {
				c.publish(e, me, s[me], cl.dec)
				return cl.dec
			}
		}
		// Ω gate: only the current leader attempts rounds. Losing leadership
		// mid-round is harmless for safety (the round checks catch races).
		if e.Leader() != sched.ProcID(me) {
			continue
		}

		// Read phase: announce round r.
		mine := s[me]
		mine.rr = r
		my.Update(e, me, mine)
		s = my.Scan(e)
		if c.roundContested(s, me, r) {
			r += c.n
			continue
		}
		// Adopt the value written with the highest write-round, else our own
		// proposal.
		val, highest := v, 0
		for _, cl := range s {
			if cl.ww > highest {
				val, highest = cl.vv, cl.ww
			}
		}

		// Write phase: record val at round r.
		mine = s[me]
		mine.ww = r
		mine.vv = val
		my.Update(e, me, mine)
		s = my.Scan(e)
		if c.roundContested(s, me, r) {
			r += c.n
			continue
		}

		c.publish(e, me, s[me], val)
		return val
	}
}

// roundContested reports whether any other process has entered or written a
// round higher than r.
func (c *OmegaConsensus) roundContested(s []cell, me, r int) bool {
	for j, cl := range s {
		if j == me {
			continue
		}
		if cl.rr > r || cl.ww > r {
			return true
		}
	}
	return false
}

// publish records the decision in the caller's component so every scanner
// terminates.
func (c *OmegaConsensus) publish(e *sched.Env, me int, mine cell, dec any) {
	mine.dec = dec
	c.mem.Update(e, me, mine)
}
