// Package registry is the single source of truth for the certification
// schemes this module implements. Every entry point — the public facade,
// cmd/certify, cmd/certserver and the experiment harness — builds schemes
// through a Registry instead of hand-rolling its own switch statement, so
// adding a scheme (or a tree-mso property) in one place surfaces it
// everywhere: CLI flag help, the HTTP /schemes listing, and the facade.
//
// A registry maps scheme kind names ("tree-mso", "kernel-mso", ...) to
// factories parameterised by a Params struct. Each entry also carries the
// introspection metadata the paper cares about: the certificate-size bound
// and the graph class the scheme assumes.
package registry

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/automata"
	"repro/internal/cert"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/logic"
	"repro/internal/minor"
	"repro/internal/rooted"
	"repro/internal/treedepth"
	"repro/internal/treewidth"
)

// Param names an argument a scheme factory consumes. Entries declare which
// params they need; Build rejects missing ones and callers (CLI, server)
// use the declaration to validate requests and render help text.
type Param string

const (
	// ParamProperty selects a named property from the entry's Enum list
	// (tree-mso automata, universal predicates).
	ParamProperty Param = "property"
	// ParamFormula is an FO/MSO sentence in the textual syntax of
	// internal/logic.
	ParamFormula Param = "formula"
	// ParamT is the scheme's integer parameter: a treedepth bound for
	// treedepth/kernel-mso, the excluded path/cycle length for the
	// minor-freeness schemes.
	ParamT Param = "t"
)

// Params carries every argument a factory might need. Unused fields are
// ignored; Build validates that the fields the entry declares are set.
type Params struct {
	// Property is a named property for enum-driven entries.
	Property string
	// Formula is the textual FO/MSO sentence for formula-driven entries.
	// FormulaAST, when non-nil, takes precedence and skips parsing (used
	// by callers that already hold a logic.Formula).
	Formula    string
	FormulaAST logic.Formula
	// T is the integer parameter (treedepth bound, excluded minor size).
	T int
	// Provider optionally supplies elimination-tree witnesses to the
	// treedepth and kernel-mso provers. A scheme built with a provider is
	// graph-specific and must not be cached across graphs.
	Provider func(*graph.Graph) (*rooted.Tree, error)
	// DecompProvider optionally supplies a tree-decomposition witness to
	// the tw-mso prover (a generator's ground-truth record). Like
	// Provider, it binds the scheme to one graph and defeats caching —
	// the engine's shared decomposition cache attaches itself as a
	// graph-agnostic DecompSource after compilation instead.
	DecompProvider func(*graph.Graph) (*treewidth.Decomposition, error)
	// PropertyFunc overrides the named predicate of the universal scheme
	// with an arbitrary Go predicate. Like Provider, it makes the built
	// scheme uncacheable.
	PropertyFunc func(*graph.Graph) (bool, error)
}

// Cacheable reports whether a scheme built from these params may be reused
// for other graphs: closures (witness providers, ad-hoc predicates) bind
// the scheme to one caller and defeat keying by value.
func (p Params) Cacheable() bool {
	return p.Provider == nil && p.DecompProvider == nil && p.PropertyFunc == nil
}

// formula resolves the effective sentence: the pre-parsed AST if present,
// otherwise the parsed textual form.
func (p Params) formula() (logic.Formula, error) {
	if p.FormulaAST != nil {
		return p.FormulaAST, nil
	}
	return logic.Parse(p.Formula)
}

// Info is the introspection record of a registered scheme kind.
type Info struct {
	// Name is the registry key, e.g. "tree-mso".
	Name string `json:"name"`
	// Summary is a one-line description citing the paper result.
	Summary string `json:"summary"`
	// CertBound is the certificate-size bound, e.g. "O(t log n)".
	CertBound string `json:"cert_bound"`
	// GraphClass names the graph class the scheme assumes.
	GraphClass string `json:"graph_class"`
	// Needs lists the params the factory consumes.
	Needs []Param `json:"needs,omitempty"`
	// Enum lists the admissible values of ParamProperty, when finite.
	Enum []string `json:"enum,omitempty"`
	// UsesWitness marks schemes whose prover can exploit a
	// Params.Provider elimination-tree witness; callers holding a
	// witness should only attach it to these (a provider makes the
	// built scheme graph-specific and uncacheable).
	UsesWitness bool `json:"uses_witness,omitempty"`
	// UsesDecomposition marks schemes whose prover can exploit a
	// Params.DecompProvider tree-decomposition witness, with the same
	// cacheability caveat as UsesWitness.
	UsesDecomposition bool `json:"uses_decomposition,omitempty"`
}

// NeedsParam reports whether the entry declares the given param.
func (i Info) NeedsParam(p Param) bool {
	for _, n := range i.Needs {
		if n == p {
			return true
		}
	}
	return false
}

// Entry couples introspection metadata with a factory.
type Entry struct {
	Info
	// Build constructs a scheme from validated params.
	Build func(Params) (cert.Scheme, error)
}

// Registry is a concurrency-safe set of scheme entries.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{entries: map[string]*Entry{}}
}

// Register adds an entry. Duplicate names and nil factories are rejected:
// the registry is the single source of truth, so a silent overwrite would
// hide a wiring bug.
func (r *Registry) Register(e Entry) error {
	if e.Name == "" {
		return fmt.Errorf("registry: entry has no name")
	}
	if e.Build == nil {
		return fmt.Errorf("registry: entry %q has no factory", e.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.Name]; dup {
		return fmt.Errorf("registry: duplicate entry %q", e.Name)
	}
	r.entries[e.Name] = &e
	return nil
}

// MustRegister is Register for wiring code; it panics on error.
func (r *Registry) MustRegister(e Entry) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Lookup returns the entry registered under name.
func (r *Registry) Lookup(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Names returns every registered kind name, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// List returns the Info of every entry, sorted by name.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.Info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// hasFormula reports whether the params carry a sentence in either form.
func (p Params) hasFormula() bool { return p.Formula != "" || p.FormulaAST != nil }

// validate checks that every declared param is supplied and that enum
// params name a known value. Entries declaring both ParamProperty and
// ParamFormula treat them as alternatives: the formula supersedes the enum
// lookup when both are given, and the enum membership check only applies
// when the property actually drives the build.
func (e *Entry) validate(p Params) error {
	needsProp, needsFormula := e.NeedsParam(ParamProperty), e.NeedsParam(ParamFormula)
	if needsProp && needsFormula {
		if p.PropertyFunc == nil && !p.hasFormula() && p.Property == "" {
			return fmt.Errorf("registry: %s: needs a formula or a property (one of %v)", e.Name, e.Enum)
		}
	}
	for _, need := range e.Needs {
		switch need {
		case ParamProperty:
			if p.PropertyFunc != nil {
				break // an ad-hoc predicate supplies its own semantics
			}
			if needsFormula && p.hasFormula() {
				break // the formula supersedes the enum lookup
			}
			if needsFormula && p.Property == "" {
				break // already reported above
			}
			if p.Property == "" {
				return fmt.Errorf("registry: %s: missing property (one of %v)", e.Name, e.Enum)
			}
			if len(e.Enum) > 0 {
				ok := false
				for _, v := range e.Enum {
					if v == p.Property {
						ok = true
						break
					}
				}
				if !ok {
					return fmt.Errorf("registry: %s: unknown property %q (one of %v)", e.Name, p.Property, e.Enum)
				}
			}
		case ParamFormula:
			if needsProp {
				break // alternative pair, handled above
			}
			if !p.hasFormula() {
				return fmt.Errorf("registry: %s: missing formula", e.Name)
			}
		case ParamT:
			if p.T <= 0 {
				return fmt.Errorf("registry: %s: parameter t must be positive, got %d", e.Name, p.T)
			}
		}
	}
	return nil
}

// Build validates params against the entry named name and invokes its
// factory.
func (r *Registry) Build(name string, p Params) (cert.Scheme, error) {
	e, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown scheme %q (known: %v)", name, r.Names())
	}
	if err := e.validate(p); err != nil {
		return nil, err
	}
	return e.Build(p)
}

// defaultRegistry is built once; Default returns it.
var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the registry holding every scheme of the paper. It is
// shared and safe for concurrent use.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = New()
		registerAll(defaultReg)
	})
	return defaultReg
}

// Enum returns the declared property names of any entry in the default
// registry — the single accessor the per-scheme helpers below wrap, so
// the enum lists cannot drift between callers.
func Enum(kind string) []string {
	e, ok := Default().Lookup(kind)
	if !ok {
		return nil
	}
	return append([]string(nil), e.Enum...)
}

// TreeMSOProperties returns the property names of the tree-mso entry in
// the default registry — the one list both the facade and the CLI derive
// their help text from.
func TreeMSOProperties() []string { return Enum("tree-mso") }

// TreewidthMSOProperties returns the property names of the tw-mso entry.
func TreewidthMSOProperties() []string { return Enum("tw-mso") }

// UniversalProperties returns the named predicates of the universal entry.
func UniversalProperties() []string { return Enum("universal") }

// universalPredicates are the named ground-truth predicates of the
// universal baseline scheme.
var universalPredicates = map[string]func(*graph.Graph) (bool, error){
	"diameter-<=2": func(g *graph.Graph) (bool, error) {
		d := g.Diameter()
		return d >= 0 && d <= 2, nil
	},
	"connected": func(g *graph.Graph) (bool, error) { return g.Connected(), nil },
	"is-tree":   func(g *graph.Graph) (bool, error) { return g.IsTree(), nil },
}

func sortedKeys(m map[string]func(*graph.Graph) (bool, error)) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// resolveFormula returns the sentence driving a formula-or-property entry:
// the explicit formula when present (it supersedes the enum lookup),
// otherwise the property name's defining alias sentence from the compile
// layer.
func resolveFormula(kind string, p Params) (logic.Formula, error) {
	if p.hasFormula() {
		return p.formula()
	}
	f, ok := compile.AliasFormula(kind, p.Property)
	if !ok {
		return nil, fmt.Errorf("registry: %s: unknown property %q (one of %v)", kind, p.Property, compile.AliasNames(kind))
	}
	return f, nil
}

// registerAll wires every scheme of the paper into r.
func registerAll(r *Registry) {
	r.MustRegister(Entry{
		Info: Info{
			Name: "tree-mso",
			Summary: "Theorem 2.2: O(1)-bit certification of an MSO/FO sentence on trees " +
				"(library sentences map to hand-built automata, other FO compiles via type discovery)",
			CertBound:  "O(1)",
			GraphClass: "trees",
			Needs:      []Param{ParamProperty, ParamFormula},
			Enum:       compile.AliasNames("tree-mso"),
		},
		Build: func(p Params) (cert.Scheme, error) {
			f, err := resolveFormula("tree-mso", p)
			if err != nil {
				return nil, err
			}
			return compile.Tree(f)
		},
	})
	r.MustRegister(Entry{
		Info: Info{
			Name:       "tree-fo",
			Summary:    "Theorem 2.2 (compiler): O(1)-bit certification of an FO sentence on trees via rank-k type discovery",
			CertBound:  "O(1)",
			GraphClass: "trees",
			Needs:      []Param{ParamFormula},
		},
		Build: func(p Params) (cert.Scheme, error) {
			f, err := p.formula()
			if err != nil {
				return nil, err
			}
			return automata.NewTypeScheme(f)
		},
	})
	r.MustRegister(Entry{
		Info: Info{
			Name:        "treedepth",
			Summary:     "Theorem 2.4: certification of treedepth <= t",
			CertBound:   "O(t log n)",
			GraphClass:  "connected graphs",
			Needs:       []Param{ParamT},
			UsesWitness: true,
		},
		Build: func(p Params) (cert.Scheme, error) {
			return &treedepth.Scheme{T: p.T, ModelProvider: p.Provider}, nil
		},
	})
	r.MustRegister(Entry{
		Info: Info{
			Name:        "kernel-mso",
			Summary:     "Theorem 2.6: certification of an FO/MSO sentence on graphs of treedepth <= t via kernelization",
			CertBound:   "O(t log n + f(t, phi))",
			GraphClass:  "connected graphs of treedepth <= t",
			Needs:       []Param{ParamT, ParamFormula},
			UsesWitness: true,
		},
		Build: func(p Params) (cert.Scheme, error) {
			f, err := p.formula()
			if err != nil {
				return nil, err
			}
			s, err := kernel.NewMSOScheme(p.T, f)
			if err != nil {
				return nil, err
			}
			s.ModelProvider = p.Provider
			return s, nil
		},
	})
	r.MustRegister(Entry{
		Info: Info{
			Name: "tw-mso",
			Summary: "meta-theorem workload (arXiv:2503.19671, arXiv:2112.03195): MSO certification on " +
				"bounded-treewidth graphs via a distributed tree decomposition",
			CertBound:         "O(t log n)",
			GraphClass:        "connected graphs of treewidth <= t",
			Needs:             []Param{ParamProperty, ParamFormula, ParamT},
			Enum:              compile.AliasNames("tw-mso"),
			UsesDecomposition: true,
		},
		Build: func(p Params) (cert.Scheme, error) {
			f, err := resolveFormula("tw-mso", p)
			if err != nil {
				return nil, err
			}
			prop, err := compile.Treewidth(f)
			if err != nil {
				return nil, err
			}
			s := &treewidth.MSOScheme{T: p.T, Prop: prop}
			if p.DecompProvider != nil {
				s.Decomps = treewidth.DecompFunc(p.DecompProvider)
			}
			return s, nil
		},
	})
	r.MustRegister(Entry{
		Info: Info{
			Name:       "pt-minor-free",
			Summary:    "Corollary 2.7: certification of P_t-minor-freeness",
			CertBound:  "O(log n)",
			GraphClass: "connected graphs",
			Needs:      []Param{ParamT},
		},
		Build: func(p Params) (cert.Scheme, error) {
			return minor.NewPathMinorFreeScheme(p.T)
		},
	})
	r.MustRegister(Entry{
		Info: Info{
			Name:       "ct-minor-free",
			Summary:    "Corollary 2.7: certification of C_t-minor-freeness",
			CertBound:  "O(log n)",
			GraphClass: "connected graphs",
			Needs:      []Param{ParamT},
		},
		Build: func(p Params) (cert.Scheme, error) {
			return minor.NewCycleMinorFreeScheme(p.T)
		},
	})
	r.MustRegister(Entry{
		Info: Info{
			Name: "universal",
			Summary: "generic upper bound: whole-graph certificates for a named decidable property " +
				"or an arbitrary FO/MSO sentence (decided by model checking)",
			CertBound:  "O(n^2)",
			GraphClass: "connected graphs",
			Needs:      []Param{ParamProperty, ParamFormula},
			Enum:       sortedKeys(universalPredicates),
		},
		Build: func(p Params) (cert.Scheme, error) {
			if p.PropertyFunc != nil {
				return &core.Universal{PropertyName: p.Property, Property: p.PropertyFunc}, nil
			}
			if p.hasFormula() {
				// The formula path model-checks the sentence directly; the
				// enum names below keep their native predicates, which
				// scale past the brute-force evaluator's limits.
				f, err := p.formula()
				if err != nil {
					return nil, err
				}
				return compile.Universal(f)
			}
			pred := universalPredicates[p.Property]
			if pred == nil {
				return nil, fmt.Errorf("registry: universal: unknown property %q", p.Property)
			}
			return &core.Universal{PropertyName: p.Property, Property: pred}, nil
		},
	})
	r.MustRegister(Entry{
		Info: Info{
			Name:       "existential-fo",
			Summary:    "Lemma 2.1: certification of a purely existential FO sentence",
			CertBound:  "O(q log n)",
			GraphClass: "connected graphs",
			Needs:      []Param{ParamFormula},
		},
		Build: func(p Params) (cert.Scheme, error) {
			f, err := p.formula()
			if err != nil {
				return nil, err
			}
			return core.NewExistentialFO(f)
		},
	})
	r.MustRegister(Entry{
		Info: Info{
			Name:       "depth2-fo",
			Summary:    "Lemma 2.1: certification of an FO sentence of quantifier depth <= 2",
			CertBound:  "O(log n)",
			GraphClass: "connected graphs",
			Needs:      []Param{ParamFormula},
		},
		Build: func(p Params) (cert.Scheme, error) {
			f, err := p.formula()
			if err != nil {
				return nil, err
			}
			return core.NewDepth2FO(f)
		},
	})
}
