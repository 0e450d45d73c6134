package spectest

// Weak-memory battery support: helpers for the differential tests that pin
// the backend-parameterized specs' semantics — enumerate the backend specs
// and build cells with a named backend. The batteries replay and minimize
// witnesses through explore.ReplayScript, ReplayLoose and MinimizeScript.

import (
	"fmt"

	"mpcn/internal/explore/spec"
)

// BackendSpecs returns the registered specs that declare the string-domain
// "backend" parameter, in spec.All's name-sorted order — the specs the
// weak-memory battery sweeps.
func BackendSpecs() []spec.Spec {
	var out []spec.Spec
	for _, s := range spec.All() {
		if _, ok := backendDecl(s); ok {
			out = append(out, s)
		}
	}
	return out
}

// backendDecl finds s's "backend" parameter declaration.
func backendDecl(s spec.Spec) (spec.Param, bool) {
	for _, d := range s.Params() {
		if d.Name == "backend" && d.Enum() {
			return d, true
		}
	}
	return spec.Param{}, false
}

// BackendParams resolves s's parameters with the backend pinned by name on
// top of overrides — the cell constructor of the differential battery.
func BackendParams(s spec.Spec, backend string, overrides spec.Params) (spec.Params, error) {
	d, ok := backendDecl(s)
	if !ok {
		return nil, fmt.Errorf("spectest: spec %q declares no backend parameter", s.Name())
	}
	idx, ok := d.ValueIndex(backend)
	if !ok {
		return nil, fmt.Errorf("spectest: spec %q has no backend %q (domain %s)", s.Name(), backend, d.Range())
	}
	p := overrides.Clone()
	if p == nil {
		p = spec.Params{}
	}
	p["backend"] = idx
	return spec.Resolve(s, p)
}
