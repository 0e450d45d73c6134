package sched

import (
	"fmt"
	"slices"
	"strings"
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

// Object identifies a shared object named by step labels: the label up to
// its final '.' ("mem[3].write" -> "mem[3]"). Objects are dense small
// integers assigned at intern time, in a namespace of their own: an object
// name is never interned as a Label.
type Object int32

// ObjectNone is the Object of the empty name.
const ObjectNone Object = 0

// labelEntry is one row of the intern table: the label's string and the
// facts the reductions read from it, all computed once when the label is
// interned.
type labelEntry struct {
	name string
	// obj is the shared object the step touches; cellBase is obj with a
	// trailing index group stripped ("mem[3]" -> "mem"), ObjectNone when obj
	// is not a cell.
	obj, cellBase Object
	// family and cell are set for labels interned by InternIndexed: the
	// family's base label (the format applied at cell index -1) and the
	// concrete cell index.
	family Label
	cell   int32
	// readOnly marks register reads and snapshot scans.
	readOnly bool
	indexed  bool
}

// labelTable is the global intern table. Lookups (the Intern fast path) go
// through a sync.Map; Label-indexed reads index an immutable slice header
// published through an atomic pointer. New labels append under the mutex —
// in place while capacity lasts, with an amortized-doubling copy otherwise —
// so interning is O(1) amortized and reads are always lock-free. Each entry
// carries the label's facts, so a reader gets name and facts with one
// atomic load and an index.
type labelTable struct {
	mu      sync.Mutex
	byName  sync.Map // string -> Label
	entries atomic.Pointer[[]labelEntry]
	objects map[string]Object // guarded by mu
}

var labels = newLabelTable()

func newLabelTable() *labelTable {
	t := &labelTable{objects: map[string]Object{"": ObjectNone}}
	es := make([]labelEntry, 0, 64)
	t.entries.Store(&es)
	t.add("", LabelNone, -1)
	t.add(StartLabel, LabelNone, -1)
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
	return labels.add(name, LabelNone, -1)
}

// add interns name with t.mu held. A cell index >= 0 records the label as
// that cell of the InternIndexed family whose base label is family; the
// first family to claim a label keeps it.
func (t *labelTable) add(name string, family Label, cell int) Label {
	es := *t.entries.Load()
	if v, ok := t.byName.Load(name); ok {
		l := v.(Label)
		if cell >= 0 && !es[l].indexed {
			// A plain label joins a family: lock-free readers may hold the
			// current slice, so the changed entry goes into a copy.
			es = slices.Clone(es)
			es[l].family, es[l].cell, es[l].indexed = family, int32(cell), true
			t.entries.Store(&es)
		}
		return l
	}
	obj := name
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		obj = name[:i]
	}
	e := labelEntry{
		name:     name,
		obj:      t.object(obj),
		readOnly: strings.HasSuffix(name, ".read") || strings.HasSuffix(name, ".scan"),
	}
	if i := strings.LastIndexByte(obj, '['); i >= 0 && strings.HasSuffix(obj, "]") {
		e.cellBase = t.object(obj[:i])
	}
	if cell >= 0 {
		e.family, e.cell, e.indexed = family, int32(cell), true
	}
	l := Label(len(es))
	// Appending may grow the backing array (amortized doubling); readers
	// keep whatever snapshot they loaded, which covers every Label published
	// before their load.
	es = append(es, e)
	t.entries.Store(&es)
	t.byName.Store(name, l)
	return l
}

// object returns the Object named name, assigning one on first use; t.mu
// held.
func (t *labelTable) object(name string) Object {
	o, ok := t.objects[name]
	if !ok {
		o = Object(len(t.objects))
		t.objects[name] = o
	}
	return o
}

// entry returns l's row of the table, or nil for a Label never interned.
func entry(l Label) *labelEntry {
	es := *labels.entries.Load()
	if uint(l) >= uint(len(es)) {
		return nil
	}
	return &es[l]
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
// e.g. "%s[%d].read". Each cell label records its family's base label (the
// format at cell index -1, which no real cell carries) and its index, which
// IndexedLabel reports. The result is cached per (format, name, n) and
// shared, so replay engines that reconstruct shared objects with recurring
// names on every run (millions of times) pay the Sprintf + intern work
// once. The returned slice is shared and must not be mutated.
func InternIndexed(format, name string, n int) []Label {
	key := indexedKey{format: format, name: name, n: n}
	if ls, ok := indexedCache.Load(key); ok {
		return ls.([]Label)
	}
	ls := make([]Label, n)
	labels.mu.Lock()
	base := labels.add(fmt.Sprintf(format, name, -1), LabelNone, -1)
	for i := range ls {
		ls[i] = labels.add(fmt.Sprintf(format, name, i), base, i)
	}
	labels.mu.Unlock()
	actual, _ := indexedCache.LoadOrStore(key, ls)
	return actual.([]Label)
}

type indexedKey struct {
	format, name string
	n            int
}

var indexedCache sync.Map // indexedKey -> []Label

// ObjectOf returns what the table recorded about the shared object l's step
// touches: the object, its cell base (obj with a trailing "[i]" stripped;
// ObjectNone when obj is not a cell) and whether the step only reads it (a
// register read or a snapshot scan). It is lock-free and safe for
// concurrent use.
func ObjectOf(l Label) (obj, cellBase Object, readOnly bool) {
	if e := entry(l); e != nil {
		return e.obj, e.cellBase, e.readOnly
	}
	return ObjectNone, ObjectNone, false
}

// IndexedLabel reports whether l was interned by InternIndexed and, if so,
// returns the family's base label and the cell index. Symmetry-reduced
// fingerprints (FP.SymLabel) use it to fold "process i parked on its own
// cell i" without the concrete index, the canonical form under process
// permutation. It is lock-free and safe for concurrent use.
func IndexedLabel(l Label) (base Label, idx int, ok bool) {
	if e := entry(l); e != nil && e.indexed {
		return e.family, int(e.cell), true
	}
	return 0, 0, false
}

// NumLabels returns the number of labels interned so far. Labels are dense:
// every Label returned by Intern is < NumLabels().
func NumLabels() int { return len(*labels.entries.Load()) }

// String returns the interned string. The zero Label prints as the empty
// string; Labels never returned by Intern print as Label(i).
func (l Label) String() string {
	if e := entry(l); e != nil {
		return e.name
	}
	return fmt.Sprintf("Label(%d)", int32(l))
}
