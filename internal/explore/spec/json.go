// JSON projections of the registry: self-describing Info records for every
// Spec, and structured detail for rejected parameter assignments. These are
// the wire shapes the exploredd daemon serves (GET /specs, ParamError 400
// bodies) and cmd/explore's -list -json prints — one encoding, every
// consumer.

package spec

// ParamInfo is the JSON projection of one Param domain.
type ParamInfo struct {
	Name    string `json:"name"`
	Doc     string `json:"doc"`
	Default int    `json:"default"`
	Min     int    `json:"min"`
	// Max is omitted (null semantics via the range string) when the domain
	// has no static upper bound; Unbounded then reports it.
	Max       int  `json:"max,omitempty"`
	Unbounded bool `json:"unbounded,omitempty"`
	// Values lists the symbolic names of a string-domain parameter (the
	// integer value indexes this list); empty for integer params.
	Values []string `json:"values,omitempty"`
	// Range is the human-readable domain rendering ("1..8", "1..∞",
	// "atomic|regular|tso") — the same string -list prints.
	Range string `json:"range"`
	// DefaultName is the default value the way a user passes it: the symbolic
	// name for string-domain params, the decimal literal otherwise.
	DefaultName string `json:"defaultName"`
}

// CapabilityInfo is the JSON projection of a spec's engine-capability flags.
type CapabilityInfo struct {
	// Dedup: New's sessions carry a Fingerprint (explore.Config.Dedup usable).
	Dedup bool `json:"dedup"`
	// Prune: the checker is order-insensitive on commuting operations
	// (explore.Config.Prune sound); true for every spec.
	Prune bool `json:"prune"`
	// Symmetry: sessions declare process-permutation symmetry
	// (explore.Config.Symmetry sound; implies Dedup).
	Symmetry bool `json:"symmetry"`
	// Unbounded: the full decision tree cannot be exhausted at any feasible
	// run budget; consumers run bounded smokes or sample.
	Unbounded bool `json:"unbounded"`
}

// SamplingInfo is the JSON projection of a spec's Sampling declaration.
type SamplingInfo struct {
	Budget int `json:"budget,omitempty"`
	Depth  int `json:"depth,omitempty"`
}

// Info is the JSON projection of one registered Spec: everything a remote
// consumer needs to render the catalog, build parameter assignments and pick
// an engine without importing the registry.
type Info struct {
	Name         string         `json:"name"`
	Doc          string         `json:"doc"`
	Params       []ParamInfo    `json:"params"`
	Capabilities CapabilityInfo `json:"capabilities"`
	Sampling     SamplingInfo   `json:"sampling,omitzero"`
}

// paramInfo projects one Param.
func paramInfo(p Param) ParamInfo {
	info := ParamInfo{
		Name:        p.Name,
		Doc:         p.Doc,
		Default:     p.Default,
		Min:         p.Min,
		Max:         p.Max,
		Range:       p.Range(),
		DefaultName: p.ValueName(p.Default),
	}
	if len(p.Values) > 0 {
		info.Values = append([]string(nil), p.Values...)
	}
	if p.Max == NoMax {
		info.Max, info.Unbounded = 0, true
	}
	return info
}

// Describe projects a Spec to its Info record.
func Describe(s Spec) Info {
	decls := s.Params()
	params := make([]ParamInfo, len(decls))
	for i, p := range decls {
		params[i] = paramInfo(p)
	}
	return Info{
		Name:   s.Name(),
		Doc:    s.Doc(),
		Params: params,
		Capabilities: CapabilityInfo{
			Dedup:     s.SupportsDedup(),
			Prune:     true,
			Symmetry:  s.SupportsSymmetry(),
			Unbounded: Unbounded(s),
		},
		Sampling: SamplingInfo(s.Sampling()),
	}
}

// DescribeAll projects every registered spec, sorted by name — the GET /specs
// payload.
func DescribeAll() []Info {
	specs := All()
	out := make([]Info, len(specs))
	for i, s := range specs {
		out[i] = Describe(s)
	}
	return out
}

// ParamErrorInfo is the structured JSON body of a rejected parameter
// assignment — what the daemon returns with a 400 so clients can render the
// offending parameter's declared domain instead of parsing the error string.
type ParamErrorInfo struct {
	// Error is the full human-readable message (ParamError.Error()).
	Error string `json:"error"`
	// Spec and Param name the rejection site.
	Spec  string `json:"spec"`
	Param string `json:"param"`
	// Unknown: the spec declares no parameter of that name.
	Unknown bool `json:"unknown,omitempty"`
	// Value is the rejected integer value (absent when Unknown or when a
	// symbolic name failed to resolve).
	Value int `json:"value,omitempty"`
	// ValueName is the rejected symbolic value of a string-domain parameter.
	ValueName string `json:"valueName,omitempty"`
	// Decl is the violated declaration (absent when Unknown).
	Decl *ParamInfo `json:"decl,omitempty"`
	// Declared lists the spec's full parameter domains, name-sorted.
	Declared []ParamInfo `json:"declared"`
}

// Info projects the error for a JSON error body.
func (e *ParamError) Info() ParamErrorInfo {
	info := ParamErrorInfo{
		Error:     e.Error(),
		Spec:      e.Spec,
		Param:     e.Param,
		Unknown:   e.Unknown,
		ValueName: e.ValueName,
		Declared:  make([]ParamInfo, len(e.Declared)),
	}
	for i, d := range e.Declared {
		info.Declared[i] = paramInfo(d)
	}
	if !e.Unknown {
		d := paramInfo(e.Decl)
		info.Decl = &d
		if e.ValueName == "" {
			info.Value = e.Value
		}
	}
	return info
}
