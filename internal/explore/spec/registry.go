package spec

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrUnknownSpec is the sentinel wrapped by Lookup failures; the error text
// names the spec that was asked for and lists the registered alternatives.
var ErrUnknownSpec = errors.New("spec: unknown spec")

var registry struct {
	mu    sync.RWMutex
	specs map[string]Spec
}

// Register adds a scenario to the registry. Malformed declarations and
// duplicate names panic: registration happens from init funcs, where a bad
// Decl is a programming error, not a run-time condition.
func Register(d Decl) {
	s, err := newScenario(d)
	if err != nil {
		panic(err.Error())
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.specs == nil {
		registry.specs = make(map[string]Spec)
	}
	if _, dup := registry.specs[d.Name]; dup {
		panic(fmt.Sprintf("spec: duplicate registration of %q", d.Name))
	}
	registry.specs[d.Name] = s
}

// Lookup returns the registered spec of that name, or an error wrapping
// ErrUnknownSpec that lists the available names.
func Lookup(name string) (Spec, error) {
	registry.mu.RLock()
	s, ok := registry.specs[name]
	registry.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (available: %s)", ErrUnknownSpec, name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// All returns every registered spec, sorted by name.
func All() []Spec {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Spec, 0, len(registry.specs))
	for _, s := range registry.specs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Names returns every registered spec name, sorted.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]string, 0, len(registry.specs))
	for name := range registry.specs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
