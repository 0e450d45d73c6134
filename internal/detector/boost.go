package detector

import (
	"fmt"
	"strconv"

	"mpcn/internal/agreement"
	"mpcn/internal/object"
	"mpcn/internal/reg"
	"mpcn/internal/sched"
	"mpcn/internal/snapshot"
)

// BoostedConsensus solves n-process consensus from three ingredients the
// paper's related work (§1.3) puts side by side: consensus-number-x objects,
// registers, and the Ωx failure detector. Guerraoui & Kuznetsov showed Ωx is
// exactly what is needed to boost consensus number x to x+1; since Ωx also
// derives Ωy for every y >= x, iterating the boost climbs all the way to n —
// this type implements the collapsed construction directly.
//
// Protocol (round-based):
//
//	round r: S := Ωx-query.
//	  members of S funnel their estimates through the x-ported consensus
//	  object XC[S, r] and announce the round's value;
//	  everyone waits for a round-r announcement (or a published decision),
//	  adopts it, and runs commit-adopt CA[r] on the adopted value: commit
//	  decides, adopt carries the value to round r+1.
//
// Safety never depends on the oracle: commit-adopt guarantees that the first
// committed value is adopted by everyone afterwards. The oracle only makes
// some round's announcements unique — once the leader set stabilizes with a
// correct member, a single x-consensus object serves each round, everyone
// adopts the same value and commits. The construction therefore terminates
// even though the oracle is adversarially weak (its set may contain crashed
// processes; see sched.Env.LeaderSet).
type BoostedConsensus struct {
	name string
	n, x int

	dec *reg.Register[decCell]
	xc  map[xcKey]*lazy[*object.XConsensus]
	ca  map[int]*lazy[*agreement.CommitAdopt]
	run int // bumped by Reset

	annSnap *snapshot.Primitive[annCell]
}

// lazy is an object built on its first use, with the run that last used
// it: Reset keeps the objects, and each is reset on its first use in the
// next run, so every run meets it freshly constructed.
type lazy[T interface{ Reset() }] struct {
	obj T
	run int
}

// current returns the object, reset first if an earlier run used it.
func (l *lazy[T]) current(run int) T {
	if l.run != run {
		l.obj.Reset()
		l.run = run
	}
	return l.obj
}

// xcKey addresses XC[S, r]. An Ωx output is the window {lo..lo+x-1} (see
// sched.Env.LeaderSet), so its lowest member names the whole set.
type xcKey struct {
	lo    sched.ProcID
	round int
}

// annCell is one process's announcement: the latest round it completed as a
// leader-set member, and that round's agreed value.
type annCell struct {
	round int
	v     any
}

// Fingerprint implements sched.Fingerprinter so announcement observations
// fold without fmt formatting.
func (c annCell) Fingerprint(h *sched.FP) {
	h.Int(c.round)
	h.Value(c.v)
}

// decCell is the published decision.
type decCell struct {
	set bool
	v   any
}

// Fingerprint implements sched.Fingerprinter so decision observations fold
// without fmt formatting.
func (c decCell) Fingerprint(h *sched.FP) {
	h.Bool(c.set)
	h.Value(c.v)
}

// NewBoostedConsensus returns a consensus object for processes 0..n-1 built
// from x-ported consensus objects and the Ωx oracle.
func NewBoostedConsensus(name string, n, x int) *BoostedConsensus {
	if n < 1 || x < 1 || x > n {
		panic(fmt.Sprintf("detector: %q needs 1 <= x <= n, got n=%d x=%d", name, n, x))
	}
	return &BoostedConsensus{
		name:    name,
		n:       n,
		x:       x,
		dec:     reg.New[decCell](name + ".DEC"),
		xc:      make(map[xcKey]*lazy[*object.XConsensus]),
		ca:      make(map[int]*lazy[*agreement.CommitAdopt]),
		annSnap: snapshot.NewPrimitive[annCell](name+".ANN", n),
	}
}

// xcAt returns XC[S, r] for the window S = {key.lo..key.lo+x-1} and round
// r = key.round, creating it lazily with ports S; only then is S built as a
// slice.
func (b *BoostedConsensus) xcAt(key xcKey) *object.XConsensus {
	l, ok := b.xc[key]
	if !ok {
		set := make([]sched.ProcID, b.x)
		for i := range set {
			set[i] = key.lo + sched.ProcID(i)
		}
		l = &lazy[*object.XConsensus]{run: b.run,
			obj: object.NewXConsensus(b.name+".XC["+formatSet(set)+"@"+strconv.Itoa(key.round)+"]", b.x, set)}
		b.xc[key] = l
	}
	return l.current(b.run)
}

// formatSet renders set as fmt's %v does ("[0 1]"), without fmt.
func formatSet(set []sched.ProcID) string {
	buf := []byte{'['}
	for i, p := range set {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(p), 10)
	}
	return string(append(buf, ']'))
}

// caAt returns CA[r], creating it lazily.
func (b *BoostedConsensus) caAt(r int) *agreement.CommitAdopt {
	l, ok := b.ca[r]
	if !ok {
		l = &lazy[*agreement.CommitAdopt]{run: b.run,
			obj: agreement.NewCommitAdopt(b.name+".CA["+strconv.Itoa(r)+"]", b.n)}
		b.ca[r] = l
	}
	return l.current(b.run)
}

// Reset returns the object to its freshly constructed state for another
// run, keeping the XC and CA objects earlier runs built and their step
// labels.
func (b *BoostedConsensus) Reset() {
	b.run++
	b.dec.Reset()
	b.annSnap.Reset()
}

// Propose proposes v and returns the decided value. All n processes are
// expected to participate (the protocol's liveness relies on the oracle
// set's correct member running Propose).
func (b *BoostedConsensus) Propose(e *sched.Env, v any) any {
	if v == nil {
		panic(fmt.Sprintf("detector: nil proposal to %s", b.name))
	}
	if me := int(e.ID()); me >= b.n {
		panic(fmt.Sprintf("detector: process %d outside %s's population %d", me, b.name, b.n))
	}

	est := v
	proposed := make(map[xcKey]bool)
	for r := 1; ; r++ {
		// Wait for a round >= r announcement (or a published decision),
		// re-evaluating leader-set membership on every probe: the oracle
		// output evolves with crashes, and the live witness of the eventual
		// set must notice it became a member (its first query may predate
		// the crashes that promoted it). Members funnel their estimate
		// through the (set, round)-keyed x-ported object and announce the
		// outcome; the oracle set always contains a live process, and a
		// live member announces every round it passes, so the wait
		// terminates. Adopting the announcement with the smallest round
		// makes every process at round r adopt the same value once the
		// oracle has stabilized — a single x-consensus object then serves
		// each round, so commit-adopt converges and commits.
		var adopted any
		for adopted == nil {
			var decided bool
			if adopted, decided = b.probe(e, r, est, proposed); decided {
				return adopted
			}
		}

		val, committed := b.caAt(r).Propose(e, adopted)
		if committed {
			b.dec.Write(e, decCell{set: true, v: val})
			return val
		}
		est = val
	}
}

// probe is one iteration of round r's wait loop. It returns the published
// decision (decided set), or else the round-r value to adopt, nil while no
// announcement qualifies. A member of the current Ωx window first funnels
// est through XC[window, r] and announces the outcome, once per window. The
// announcements are read through ScanView and consumed before the next
// step, so a probe that proposes nothing allocates nothing.
func (b *BoostedConsensus) probe(e *sched.Env, r int, est any, proposed map[xcKey]bool) (v any, decided bool) {
	if d := b.dec.Read(e); d.set {
		return d.v, true
	}
	lo := e.LeaderWindow(b.x)
	if key := (xcKey{lo: lo, round: r}); e.ID() >= lo && e.ID() < lo+sched.ProcID(b.x) && !proposed[key] {
		proposed[key] = true
		w := b.xcAt(key).Propose(e, est)
		b.annSnap.Update(e, int(e.ID()), annCell{round: r, v: w})
	}
	ann := b.annSnap.ScanView(e)
	best := -1
	for j, c := range ann {
		if c.round >= r && c.v != nil && (best < 0 || c.round < ann[best].round) {
			best = j
		}
	}
	if best < 0 {
		return nil, false
	}
	return ann[best].v, false
}
