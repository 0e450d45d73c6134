package sched

import (
	"fmt"
	"math/bits"
)

// Fingerprint is a 128-bit canonical digest of a run state, computed at a
// decision boundary (every process parked or finished, no step in flight).
// Replay engines use fingerprints to recognize that two different decision
// prefixes converged on the same state and to cut off the redundant subtree,
// turning the decision *tree* into a state *graph* (SPIN/TLA-style state
// hashing). Two states with equal fingerprints are treated as identical; at
// 128 bits the collision probability over even billions of states is
// negligible, but — as in every hashing checker — not zero.
type Fingerprint struct {
	Hi, Lo uint64
}

// FP accumulates a Fingerprint from a sequence of words. The zero value is
// ready to use; feed state through the typed helpers and call Sum. The
// accumulation is order-sensitive: callers that need a canonical digest must
// fold state in a canonical order (or combine per-element digests
// commutatively — see Mix — for genuinely unordered collections such as
// maps).
//
// The digest is two 64-bit lanes. Word costs one multiply-rotate round per
// lane — a bijection of each lane for a fixed word, with no avalanche — and
// Sum runs the full avalanche once, when the lanes are finalized, so a long
// fold pays for mixing once rather than per word.
//
// The zero FP is a plain value (two words, no heap state): hashing allocates
// nothing. Stored values fold through Fold, straight from the storage the
// object already holds, with no interface boxing; Value folds values that
// are already interfaces. fmt formatting (which allocates) is a last resort
// for foreign types that implement no Fingerprinter.
//
// NewOrbitFP builds an FP in orbit-canonical mode: it additionally carries
// one digest lane per process, and Sum folds the lane digests in sorted
// order, so state that reaches the hash through the lanes is canonical under
// process permutation (symmetry reduction). Everything folded into the root
// FP stays order-sensitive, which is where asymmetric state (partial-order
// context, rank-keyed structures) belongs. In plain mode Lane returns the
// root and Sub returns a zero FP, so symmetry-aware fold code is byte-exact
// with the pre-orbit fold when run on a plain FP.
type FP struct {
	a, b uint64
	orb  *orbit
}

// orbit is the heap side of an orbit-mode FP: the canonicalization hook, the
// per-process digest lanes (root only), and reusable scratch. Lanes and the
// Sub carrier share the root's canon so value canonicalization applies
// uniformly wherever harness state is folded.
type orbit struct {
	canon func(any) any
	owner ProcID        // lane's process; -1 on the root and the Sub carrier
	lanes []FP          // root only: one digest lane per process
	subs  []orbit       // root only: backing storage for the lanes' orbits
	sums  []Fingerprint // root only: scratch for Sum's sorted lane fold
	sub   *orbit        // canon-only carrier handed out by Sub
}

// NewOrbitFP returns an FP in orbit-canonical mode with n per-process digest
// lanes. canon, when non-nil, is applied to every value folded through Value
// or Fold (on the root, the lanes and Sub carriers alike) before hashing,
// except a Fingerprinter, whose parts it sees instead — the hook
// sessions use to erase value parameterizations that differ only by process
// identity (e.g. per-process proposal values). Orbit FPs are reusable via
// Reset; they are not safe for concurrent use.
func NewOrbitFP(n int, canon func(any) any) *FP {
	if n <= 0 {
		panic(fmt.Sprintf("sched: NewOrbitFP needs a positive lane count, got %d", n))
	}
	carrier := &orbit{canon: canon, owner: -1}
	carrier.sub = carrier
	orb := &orbit{
		canon: canon,
		owner: -1,
		lanes: make([]FP, n),
		subs:  make([]orbit, n),
		sums:  make([]Fingerprint, 0, n),
		sub:   carrier,
	}
	for i := range orb.subs {
		orb.subs[i] = orbit{canon: canon, owner: ProcID(i), sub: carrier}
		orb.lanes[i] = FP{orb: &orb.subs[i]}
	}
	return &FP{orb: orb}
}

// Symmetric reports whether the FP is in orbit-canonical mode.
func (h *FP) Symmetric() bool { return h.orb != nil }

// Lanes returns the per-process lane count (0 in plain mode).
func (h *FP) Lanes() int {
	if h.orb == nil {
		return 0
	}
	return len(h.orb.lanes)
}

// Lane returns the digest lane of process id. In plain mode — and for ids
// outside the lane range, such as object cells beyond the process count — it
// returns the root FP itself, so fold code written against Lane degrades to
// the exact plain in-order fold when symmetry is off.
func (h *FP) Lane(id ProcID) *FP {
	if h.orb == nil || id < 0 || int(id) >= len(h.orb.lanes) {
		return h
	}
	return &h.orb.lanes[id]
}

// Sub returns a fresh sub-accumulator for per-element digests (the Mix
// multiset idiom): a zero FP in plain mode, and a zero-state FP carrying the
// orbit's canon hook in orbit mode, so element values canonicalize exactly
// like top-level ones. The returned FP shares no digest state with h.
func (h *FP) Sub() FP {
	if h.orb == nil {
		return FP{}
	}
	return FP{orb: h.orb.sub}
}

// Reset clears the accumulated digest (root and all lanes), keeping the
// orbit configuration, so one orbit FP can be reused across fingerprints.
func (h *FP) Reset() {
	h.a, h.b = 0, 0
	if h.orb != nil {
		for i := range h.orb.lanes {
			h.orb.lanes[i].a, h.orb.lanes[i].b = 0, 0
		}
	}
}

// Mix constants: the murmur3 finalizer multipliers and the 64-bit golden
// ratio.
const (
	fpM1     = 0xff51afd7ed558ccd
	fpM2     = 0xc4ceb9fe1a85ec53
	fpGolden = 0x9e3779b97f4a7c15
)

// Word-round constants: the xxHash64 primes. Every multiplier is odd, so
// each lane's round is a bijection of the lane for a fixed word.
const (
	fpP1 = 0x9e3779b185ebca87
	fpP2 = 0xc2b2ae3d27d4eb4f
	fpP3 = 0x165667b19e3779f9
	fpP4 = 0x85ebca77c2b2ae63
	fpP5 = 0x27d4eb2f165667c5
)

// Mix is a 64-bit finalizer (murmur3-style avalanche) and a bijection. It is
// exported so harnesses can combine per-element digests of unordered
// collections commutatively: sum (or xor) Mix-ed element digests, then fold
// the total into the FP with Word.
func Mix(z uint64) uint64 {
	z ^= z >> 33
	z *= fpM1
	z ^= z >> 29
	z *= fpM2
	z ^= z >> 32
	return z
}

// Word folds one 64-bit word with one multiply-rotate round per lane, in the
// style of xxHash64's accumulate round, with different constants on the two
// lanes. What the round guarantees: for a fixed word each lane's update is a
// bijection of that lane (an added term, a rotation and an odd multiply), so
// two different states never merge on the same word, and the word enters
// each lane through a different odd multiplier, so distinct words from one
// state move both lanes to distinct states. The constant xored into the
// word's term keeps the zero state from being a fixed point of the zero word;
// being an xor, not an add, it stays off the lane's dependency chain, which
// is one add, one rotate and one multiply per word. The round does not
// avalanche on its own: Sum applies Mix to the lane pair, and that final
// avalanche is what spreads every input bit over the whole Fingerprint.
func (h *FP) Word(v uint64) {
	h.a = bits.RotateLeft64(h.a+(v*fpP2^fpP5), 31) * fpP1
	h.b = bits.RotateLeft64(h.b+(v*fpP4^fpGolden), 27) * fpP3
}

// Int folds an int.
func (h *FP) Int(v int) { h.Word(uint64(v)) }

// Bool folds a boolean.
func (h *FP) Bool(v bool) {
	var w uint64
	if v {
		w = 1
	}
	h.Word(w)
}

// Label folds an interned step label by identity. Labels are stable for the
// process lifetime, so this is the allocation-free way to fold object
// identities (objects intern their labels at construction).
func (h *FP) Label(l Label) { h.Word(uint64(uint32(l))) }

// String folds a string (length-prefixed, so concatenations cannot collide).
func (h *FP) String(s string) {
	h.Word(uint64(len(s)))
	var w uint64
	n := 0
	for i := 0; i < len(s); i++ {
		w = w<<8 | uint64(s[i])
		if n++; n == 8 {
			h.Word(w)
			w, n = 0, 0
		}
	}
	if n > 0 {
		h.Word(w)
	}
}

// type tags keep differently-typed values from colliding in Value.
const (
	fpTagNil uint64 = iota + 0x51
	fpTagBool
	fpTagInt
	fpTagUint
	fpTagString
	fpTagLabel
	fpTagProc
	fpTagOther
	fpTagOwnCell
	fpTagSlice
)

// SymLabel folds an interned label the way a symmetric per-process lane
// needs it: when the label is a per-cell operation (interned via
// InternIndexed) and the cell index equals the lane's own process, the fold
// replaces the concrete index with the family's base label plus an "own
// cell" marker, so two processes parked on their own cell of the same object
// hash identically up to permutation. Every other label — unindexed
// operations, and cells of OTHER processes — folds raw: a raw foreign index
// keeps the canonicalization conservative (two states merge only when their
// cross-process references literally coincide), which can under-merge but
// never unsoundly over-merge. On a plain FP, SymLabel is exactly Label.
func (h *FP) SymLabel(l Label) {
	if base, own := h.ownCell(l); own {
		h.Word(fpTagOwnCell)
		h.Label(base)
		return
	}
	h.Label(l)
}

// ownCell reports whether l is a per-cell label of the lane's own process
// (always false off a lane) and, if so, returns the family's base label.
func (h *FP) ownCell(l Label) (Label, bool) {
	if h.orb != nil && h.orb.owner >= 0 {
		if base, idx, ok := IndexedLabel(l); ok && ProcID(idx) == h.orb.owner {
			return base, true
		}
	}
	return l, false
}

// Control-word layout of ControlPoints: the label in bits 0-31, the crashed
// flag in bit 32, the own-cell marker in bit 33 and the step count in bits
// 34-63. A count of ctlStepsEsc or more saturates the field and folds as a
// word of its own, so the packing stays injective for every count.
const (
	ctlCrashed    = 1 << 32
	ctlOwnCell    = 1 << 33
	ctlStepsShift = 34
	ctlStepsEsc   = 1<<(64-ctlStepsShift) - 1
)

// controlWord packs one process's control point — pending label, crashed
// flag, step count — and the own-cell marker into the single word
// ControlPoints folds. ok is false when the step count does not fit the
// packed field; the word then carries the saturated field, and the count
// must be folded as a word of its own.
func controlWord(l Label, own, crashed bool, steps int) (w uint64, ok bool) {
	w = uint64(uint32(l))
	if crashed {
		w |= ctlCrashed
	}
	if own {
		w |= ctlOwnCell
	}
	if uint64(steps) >= ctlStepsEsc {
		return w | ctlStepsEsc<<ctlStepsShift, false
	}
	return w | uint64(steps)<<ctlStepsShift, true
}

// ControlPoints folds the per-process part of a decision-boundary state, the
// fold both replay engines' fingerprints start with: for each process, its
// control point as one packed word (controlWord) and its observation digest
// as the raw lane pair, then the step count when it does not fit the packed
// word. The control
// point (pending label, crashed flag, step count — the step counts
// depth-stamp the state, keeping the state graph acyclic and the remaining
// MaxSteps budget equal for equal fingerprints) and the observations (every
// value the process read from shared state, see Observe) pin the process's
// local state: locals are deterministic functions of code position and
// observations. In orbit mode process i folds into lane i with its label
// canonicalized as SymLabel does; on a plain FP everything folds into the
// root in process order.
func (h *FP) ControlPoints(v *View) {
	n := len(v.Pending)
	crashed, steps := v.Crashed[:n], v.StepsOf[:n]
	var obs []FP
	if v.Obs != nil {
		obs = v.Obs[:n]
	}
	for i, l := range v.Pending {
		ln := h.Lane(ProcID(i))
		own := false
		if ln.orb != nil {
			l, own = ln.ownCell(l)
		}
		w, ok := controlWord(l, own, crashed[i], steps[i])
		ln.Word(w)
		if obs != nil {
			ln.Word(obs[i].a)
			ln.Word(obs[i].b)
		}
		if !ok {
			ln.Int(steps[i])
		}
	}
}

// Value folds a value that is already an interface: an any-typed cell,
// decision or log entry. Common scalar types fold without allocation under
// type tags that keep differently-typed values apart; []any (BG's snapshot
// proposals) folds structurally, element by element; values implementing
// Fingerprinter fold themselves. Stored values of a known type go through
// Fold instead, which reaches the same words without boxing them. fmt
// formatting is a last resort for foreign, user-defined types that implement
// no Fingerprinter: it allocates on every fold, and no type in this
// repository reaches it. In orbit mode the canon hook maps v first.
func (h *FP) Value(v any) {
	if h.orb != nil && h.orb.canon != nil {
		v = h.orb.canon(v)
	}
	h.value(v)
}

// value is Value after canonicalization.
func (h *FP) value(v any) {
	switch t := v.(type) {
	case nil:
		h.Word(fpTagNil)
	case bool:
		h.Word(fpTagBool)
		h.Bool(t)
	case int:
		h.Word(fpTagInt)
		h.Int(t)
	case int32:
		h.Word(fpTagInt)
		h.Word(uint64(t))
	case int64:
		h.Word(fpTagInt)
		h.Word(uint64(t))
	case uint:
		h.Word(fpTagUint)
		h.Word(uint64(t))
	case uint64:
		h.Word(fpTagUint)
		h.Word(t)
	case string:
		h.Word(fpTagString)
		h.String(t)
	case Label:
		h.Word(fpTagLabel)
		h.Label(t)
	case ProcID:
		h.Word(fpTagProc)
		h.Int(int(t))
	case []any:
		h.Word(fpTagSlice)
		h.Int(len(t))
		for i := range t {
			h.Value(t[i])
		}
	case Fingerprinter:
		t.Fingerprint(h)
	default:
		h.Word(fpTagOther)
		h.String(fmt.Sprintf("%T:%v", v, v))
	}
}

// Fold folds the value *v in place: the allocation-free way to fold state an
// object stores (a register's value, a snapshot component, a queue item).
// Pass a pointer into that storage: v escapes, so a pointer to a local copy
// would move the copy to the heap. Fold never retains v.
// Scalars fold under Value's type tags, an *any defers to Value, and a *T
// that implements Fingerprinter (T's value methods included) folds through
// the pointer, so the words match what Value folds for the boxed *v. Other
// types fall back to Value(*v). In orbit mode with a canon hook, a
// Fingerprinter folds as above, its parts reaching canon through Value, and
// any other value folds as Value(*v): canon sees the whole value. Neither
// boxes a Fingerprinter or an any cell.
func Fold[T any](h *FP, v *T) {
	if h.orb != nil && h.orb.canon != nil {
		if f, ok := any(v).(Fingerprinter); ok {
			f.Fingerprint(h)
		} else {
			h.Value(*v)
		}
		return
	}
	switch p := any(v).(type) {
	case *any:
		h.value(*p)
	case *bool:
		h.Word(fpTagBool)
		h.Bool(*p)
	case *int:
		h.Word(fpTagInt)
		h.Int(*p)
	case *int32:
		h.Word(fpTagInt)
		h.Word(uint64(*p))
	case *int64:
		h.Word(fpTagInt)
		h.Word(uint64(*p))
	case *uint:
		h.Word(fpTagUint)
		h.Word(uint64(*p))
	case *uint64:
		h.Word(fpTagUint)
		h.Word(*p)
	case *string:
		h.Word(fpTagString)
		h.String(*p)
	case *Label:
		h.Word(fpTagLabel)
		h.Label(*p)
	case *ProcID:
		h.Word(fpTagProc)
		h.Int(int(*p))
	case Fingerprinter:
		p.Fingerprint(h)
	default:
		h.value(*v)
	}
}

// Sum finalizes the accumulated state into a Fingerprint. This is where the
// avalanche lives: each half of the result is Mix of a different
// combination of both lanes, so every folded bit reaches every output bit,
// which Word's round alone does not do. Sum does not consume the FP; more
// words may be folded and Sum taken again. In orbit
// mode the root digest, the lane count and the per-process lane digests —
// sorted, so any permutation of lane contents sums identically — are
// combined into the result.
func (h *FP) Sum() Fingerprint {
	if h.orb != nil && len(h.orb.lanes) > 0 {
		return h.orbitSum()
	}
	return fpSum(h.a, h.b)
}

// fpSum finalizes one (a, b) lane pair.
func fpSum(a, b uint64) Fingerprint {
	return Fingerprint{
		Lo: Mix(a + fpGolden*b),
		Hi: Mix(b ^ (a>>31 | a<<33)),
	}
}

// fpLess orders Fingerprints lexicographically by (Hi, Lo).
func fpLess(x, y Fingerprint) bool {
	return x.Hi < y.Hi || (x.Hi == y.Hi && x.Lo < y.Lo)
}

// orbitSum folds base digest, lane count and sorted lane digests. Insertion
// sort over the reusable scratch keeps the decision-boundary hot path free
// of sort.Slice's allocation; lane counts are process counts (tiny).
func (h *FP) orbitSum() Fingerprint {
	t := FP{a: h.a, b: h.b}
	t.Int(len(h.orb.lanes))
	sums := h.orb.sums[:0]
	for i := range h.orb.lanes {
		ln := &h.orb.lanes[i]
		s := fpSum(ln.a, ln.b)
		j := len(sums)
		sums = append(sums, s)
		for j > 0 && fpLess(s, sums[j-1]) {
			sums[j] = sums[j-1]
			j--
		}
		sums[j] = s
	}
	h.orb.sums = sums[:0]
	for _, s := range sums {
		t.Word(s.Hi)
		t.Word(s.Lo)
	}
	return fpSum(t.a, t.b)
}

// Observe folds *v into the calling process's observation digest when the
// run's Config.Observe is set, and is a cheap branch otherwise. Shared-object
// implementations call it with every value they return that derives from
// shared state, passing a pointer to the value where the object stores it
// (the register, snapshot component or queue slot the operation read): the
// fold is Fold's, so nothing is boxed or copied. Writes need no observation
// (no information flows back into the process). The digests make each
// process's local state a function of its fingerprintable history; replay
// engines rely on that for state deduplication.
func Observe[T any](e *Env, v *T) {
	if !e.s.cfg.Observe {
		return
	}
	Fold(&e.s.obs[e.id], v)
}

// ObserveBool is Observe for a verdict the operation computes rather than
// reads from storage (a test&set's winner flag, a dequeue's emptiness): it
// folds the same words Observe folds for a stored bool.
func ObserveBool(e *Env, b bool) {
	var w uint64
	if b {
		w = 1
	}
	e.observeScalar(fpTagBool, w)
}

// observeScalar folds one tagged scalar word, as Value folds a bool, int or
// uint, into the observation digest; the oracles observe their results
// through it.
func (e *Env) observeScalar(tag, w uint64) {
	if !e.s.cfg.Observe {
		return
	}
	h := &e.s.obs[e.id]
	h.Word(tag)
	h.Word(w)
}

// ProcSet folds an unordered process set commutatively (membership-counted,
// iteration-order-insensitive) — the canonical fold for the proposed/seen
// maps shared objects keep.
func (h *FP) ProcSet(m map[ProcID]bool) {
	var sum uint64
	n := 0
	for id, ok := range m {
		if ok {
			sum += Mix(uint64(id) + 1)
			n++
		}
	}
	h.Int(n)
	h.Word(sum)
}

// Fingerprinter is implemented by shared objects (and by harness state) that
// can fold their current state into a canonical digest. The contract:
//
//   - Fingerprint must fold the object's complete checker-observable state:
//     two objects folding identical words must behave identically under
//     every future operation sequence.
//   - Fingerprint must be deterministic: no map-iteration order, pointer
//     values or timestamps may reach the hash. Unordered collections must be
//     folded commutatively (see Mix) or in a canonical element order.
//   - Fingerprint must not take scheduler steps (no Env access): it runs at
//     decision boundaries, outside any process.
//   - An object that memoizes its digest (see Memo) invalidates the memo on
//     every write to state the digest covers and on Reset, and owns every
//     byte its digest covers: a cached digest is only as fresh as the last
//     invalidation, so state another party can write without going through
//     the object (a buffer it aliases, say) must not be behind a memo.
//
// The reg, snapshot, object and agreement packages implement Fingerprinter
// on every shared-object type; exploration harnesses compose those into a
// per-run digest (explore.Session.Fingerprint) that also covers the harness's
// own logs.
type Fingerprinter interface {
	Fingerprint(h *FP)
}
