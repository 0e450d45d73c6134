package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Label is an interned step label: a stable, process-wide identifier for the
// string a process passes to Env.Step. Interning moves all label-string work
// (formatting, hashing, comparison) out of the scheduler's hot path — the
// runtime, the adversary View and the trace all carry Labels, and replay
// engines key their partial-order reduction on Label identity instead of
// string contents, so a replayed step performs zero string allocation.
//
// Labels are dense small integers assigned in interning order. The table is
// global and append-only: a Label, once returned by Intern, names the same
// string for the lifetime of the process, and is valid across scheduler
// Sessions and across goroutines. Interned names are retained for the
// process lifetime, so objects should derive labels from their (bounded)
// names, not from per-operation data.
type Label int32

const (
	// LabelNone is the zero Label: the empty string, used by View.Pending for
	// processes that are not parked.
	LabelNone Label = 0
	// LabelStart is the interned StartLabel, the synthetic label every
	// process is parked on before its body begins.
	LabelStart Label = 1
)

// labelTable is the global intern table. Lookups (the Intern fast path) go
// through a sync.Map; Label-to-string reads index an immutable slice header
// published through an atomic pointer. New names append under the mutex —
// in place while capacity lasts, with an amortized-doubling copy otherwise —
// so interning is O(1) amortized and reads are always lock-free.
type labelTable struct {
	mu     sync.Mutex
	byName sync.Map // string -> Label
	names  atomic.Pointer[[]string]
}

var labels = newLabelTable()

func newLabelTable() *labelTable {
	t := &labelTable{}
	names := make([]string, 2, 64)
	names[LabelNone] = ""
	names[LabelStart] = StartLabel
	t.names.Store(&names)
	t.byName.Store("", LabelNone)
	t.byName.Store(StartLabel, LabelStart)
	return t
}

// Intern returns the Label for name, assigning a new one on first use.
// It is safe for concurrent use.
func Intern(name string) Label {
	if l, ok := labels.byName.Load(name); ok {
		return l.(Label)
	}
	labels.mu.Lock()
	defer labels.mu.Unlock()
	if l, ok := labels.byName.Load(name); ok {
		return l.(Label)
	}
	names := *labels.names.Load()
	l := Label(len(names))
	// Appending may grow the backing array (amortized doubling); readers
	// keep whatever snapshot they loaded, which covers every Label published
	// before their load.
	newNames := append(names, name)
	labels.names.Store(&newNames)
	labels.byName.Store(name, l)
	return l
}

// LookupLabel returns the Label interned for name, if any. Unlike Intern it
// never grows the table, so parsers of untrusted text resolve through it.
// It is safe for concurrent use.
func LookupLabel(name string) (Label, bool) {
	l, ok := labels.byName.Load(name)
	if !ok {
		return 0, false
	}
	return l.(Label), true
}

// InternIndexed returns the interned labels of an n-cell object's per-cell
// operation: format is a two-verb pattern applied as (name, cell index),
// e.g. "%s[%d].read". The result is cached per (format, name, n) and shared,
// so replay engines that reconstruct shared objects with recurring names on
// every run (millions of times) pay the Sprintf + intern work once. The
// returned slice is shared and must not be mutated.
func InternIndexed(format, name string, n int) []Label {
	key := indexedKey{format: format, name: name, n: n}
	if ls, ok := indexedCache.Load(key); ok {
		return ls.([]Label)
	}
	ls := make([]Label, n)
	// The family's base label uses cell index -1, which no real cell ever
	// carries, so it cannot collide with a concrete cell label of the family.
	base := Intern(fmt.Sprintf(format, name, -1))
	for i := 0; i < n; i++ {
		ls[i] = Intern(fmt.Sprintf(format, name, i))
		recordIndexed(ls[i], base, i)
	}
	actual, _ := indexedCache.LoadOrStore(key, ls)
	return actual.([]Label)
}

type indexedKey struct {
	format, name string
	n            int
}

var indexedCache sync.Map // indexedKey -> []Label

// indexedMeta records the per-cell structure a label interned by
// InternIndexed carries: the family's base label (the same format applied at
// cell index -1) and the concrete cell index. Symmetry-reduced fingerprints
// (FP.SymLabel) use it to fold "process i parked on its own cell i" without
// the concrete index, the canonical form under process permutation.
type indexedMeta struct {
	base    Label
	idx     int32
	indexed bool
}

// indexedMetas is a Label-indexed side table published copy-on-write through
// an atomic pointer (same idiom as labelTable.names): reads are lock-free,
// writes happen only at intern time under the mutex.
var indexedMetas struct {
	mu sync.Mutex
	p  atomic.Pointer[[]indexedMeta]
}

// recordIndexed publishes the metadata of one indexed label. First write
// wins: a label reachable through two families (identical rendered strings)
// keeps its original record.
func recordIndexed(l, base Label, idx int) {
	indexedMetas.mu.Lock()
	defer indexedMetas.mu.Unlock()
	var src []indexedMeta
	if p := indexedMetas.p.Load(); p != nil {
		src = *p
	}
	if int(l) < len(src) && src[l].indexed {
		return
	}
	size := len(src)
	if int(l) >= size {
		size = int(l) + 1
	}
	metas := make([]indexedMeta, size)
	copy(metas, src)
	metas[l] = indexedMeta{base: base, idx: int32(idx), indexed: true}
	indexedMetas.p.Store(&metas)
}

// IndexedLabel reports whether l was interned by InternIndexed and, if so,
// returns the family's base label and the cell index. It is lock-free and
// safe for concurrent use.
func IndexedLabel(l Label) (base Label, idx int, ok bool) {
	p := indexedMetas.p.Load()
	if p == nil || l < 0 || int(l) >= len(*p) {
		return 0, 0, false
	}
	m := (*p)[l]
	if !m.indexed {
		return 0, 0, false
	}
	return m.base, int(m.idx), true
}

// NumLabels returns the number of labels interned so far. Labels are dense:
// every Label returned by Intern is < NumLabels(), which lets replay engines
// maintain Label-indexed side tables.
func NumLabels() int { return len(*labels.names.Load()) }

// String returns the interned string. The zero Label prints as the empty
// string; Labels never returned by Intern print as Label(i).
func (l Label) String() string {
	names := *labels.names.Load()
	if l >= 0 && int(l) < len(names) {
		return names[l]
	}
	return fmt.Sprintf("Label(%d)", int32(l))
}
