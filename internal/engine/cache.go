// Package engine turns the per-call schemes of the registry into a
// serving-oriented certification engine: a memoizing compile cache that
// builds each expensive artifact (rank-k type automaton, kernel type
// registry) exactly once per key, and a bounded worker pipeline that
// proves and verifies many (graph, scheme) jobs in parallel.
package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cert"
	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/registry"
)

// compileBuild is the fault point in front of every scheme build the
// compile cache performs (misses and bypasses alike).
var compileBuild = fault.NewPoint("engine.compile.build")

// Cache memoizes compiled schemes by (kind, parameters). Concurrent
// requests for the same key block on a single in-flight compilation
// (singleflight), so a burst of identical requests compiles the type
// automaton once and shares it. The sharing is sound because every
// compiled scheme in this module is safe for concurrent use: a tw-mso
// scheme's compiled sentence is immutable once compiled, and the schemes
// that grow memo tables as they prove (tree-fo's type compiler,
// kernel-mso and the minor schemes built on it) guard them with a mutex.
//
// Schemes built from params carrying closures (witness providers, ad-hoc
// predicates) are graph-specific; the cache compiles those fresh on every
// call and counts them as bypasses.
type Cache struct {
	reg *registry.Registry

	// Decomps, when set, is the shared decomposition cache handed to
	// compiled tw-mso schemes: the scheme itself stays cacheable (the
	// provider is graph-agnostic) while per-graph decompositions are
	// computed once per fingerprint across jobs and requests.
	Decomps *DecompCache

	// Obs is the metric registry the cache counters and phase histograms
	// live in, when the cache was built with one (NewCacheObs): a server
	// passes its own registry so /metrics and /healthz read the same
	// series the engine writes. NewCache leaves it nil — the counters are
	// then bare handles, still exact per cache (readable via the Stats
	// accessors) but unregistered, so constructing a throwaway cache costs
	// no registry wiring.
	Obs *obs.Registry

	flights flight[string, cert.Scheme]

	hits     *obs.Counter
	misses   *obs.Counter
	bypasses *obs.Counter

	compilePhase *obs.Histogram

	// canon memoizes raw formula text -> canonical form (NNF +
	// alpha-renaming), so a hot formula is parsed once per distinct
	// spelling rather than once per request.
	canonMu       sync.Mutex
	canon         map[string]string
	formulaHits   *obs.Counter
	formulaMisses *obs.Counter
}

// NewCache returns a cache compiling through the given registry, with
// bare (unregistered) metric handles.
func NewCache(reg *registry.Registry) *Cache {
	return NewCacheObs(reg, nil)
}

// NewCacheObs returns a cache whose counters and phase histograms live in
// r (nil means bare unregistered handles).
func NewCacheObs(reg *registry.Registry, r *obs.Registry) *Cache {
	return &Cache{
		reg:           reg,
		Obs:           r,
		flights:       flight[string, cert.Scheme]{name: "compile", max: maxCompileEntries},
		canon:         map[string]string{},
		hits:          cacheCounter(r, "compile", "hit"),
		misses:        cacheCounter(r, "compile", "miss"),
		bypasses:      cacheCounter(r, "compile", "bypass"),
		formulaHits:   cacheCounter(r, "formula", "hit"),
		formulaMisses: cacheCounter(r, "formula", "miss"),
		compilePhase:  PhaseHistogram(r, "compile"),
	}
}

// maxCompileEntries bounds the compiled schemes the cache pins: keys are
// client-controlled (every width bound t and every canonical formula is a
// fresh one), and each entry pins its compiled sentence or automaton
// (tree-fo's and kernel-mso's with the type tables they have memoized),
// so without a cap a client iterating over them would grow the server's
// memory monotonically. Eviction is arbitrary, like the decomp cache; holders of
// an evicted scheme keep it, later requests recompile.
const maxCompileEntries = 256

// maxCanonEntries bounds the formula canonicalization memo: raw spellings
// are client-controlled, so the memo would otherwise grow with every
// distinct hostile string. Eviction is arbitrary, like the decomp cache.
const maxCanonEntries = 4096

// canonicalFormula memoizes the canonical form of raw formula text.
// Unparsable text canonicalizes to itself — the key still serves, and the
// compile step reports the real parse error (failed flights are unpinned,
// so the bad key cannot poison the cache).
func (c *Cache) canonicalFormula(raw string) string {
	c.canonMu.Lock()
	if v, ok := c.canon[raw]; ok {
		c.canonMu.Unlock()
		c.formulaHits.Inc()
		return v
	}
	c.canonMu.Unlock()
	c.formulaMisses.Inc()
	canon := raw
	if f, err := logic.Parse(raw); err == nil {
		canon = logic.CanonicalString(f)
	}
	c.canonMu.Lock()
	if len(c.canon) >= maxCanonEntries {
		for k := range c.canon {
			delete(c.canon, k)
			break
		}
	}
	c.canon[raw] = canon
	c.canonMu.Unlock()
	return canon
}

// Key returns the canonical cache key for a scheme request. Only the
// params the entry declares enter the key, so e.g. a stray T on a tree-fo
// request does not fragment the cache. Formulas are keyed by canonical
// form (NNF + alpha-renaming), so alpha-equivalent and implies-eliminated
// spellings of one sentence share a single compiled scheme; enum property
// names whose build routes through the formula path (tree-mso, tw-mso)
// are keyed by their alias sentence's canonical form, so an enum request
// and an equivalent formula request share one flight too.
func (c *Cache) Key(name string, p registry.Params) (string, error) {
	e, ok := c.reg.Lookup(name)
	if !ok {
		return "", fmt.Errorf("engine: unknown scheme %q", name)
	}
	formulaKey := ""
	if e.NeedsParam(registry.ParamFormula) {
		switch {
		case p.FormulaAST != nil:
			formulaKey = logic.CanonicalString(p.FormulaAST)
		case p.Formula != "":
			formulaKey = c.canonicalFormula(p.Formula)
		}
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, need := range e.Needs {
		switch need {
		case registry.ParamProperty:
			if e.NeedsParam(registry.ParamFormula) {
				continue // folded into the sentence segment below
			}
			sb.WriteByte(0)
			sb.WriteString(p.Property)
		case registry.ParamFormula:
			sb.WriteByte(0)
			switch {
			case formulaKey != "":
				sb.WriteString("f:")
				sb.WriteString(formulaKey)
			default:
				if ck, ok := compile.PropertyCacheKey(name, p.Property); ok {
					sb.WriteString("f:")
					sb.WriteString(ck)
				} else {
					sb.WriteString("p:")
					sb.WriteString(p.Property)
				}
			}
		case registry.ParamT:
			sb.WriteByte(0)
			sb.WriteString(strconv.Itoa(p.T))
		}
	}
	return sb.String(), nil
}

// GetOrCompile returns the cached scheme for (name, p), compiling it if
// absent. Uncacheable params bypass the cache entirely.
func (c *Cache) GetOrCompile(name string, p registry.Params) (cert.Scheme, error) {
	s, _, err := c.getOrCompile(name, p)
	return s, err
}

// GetOrCompileCtx is GetOrCompile under a "compile" span: the span lands in
// the caller's trace tree tagged with the cache outcome, and the call's
// duration is recorded in the compile phase histogram.
func (c *Cache) GetOrCompileCtx(ctx context.Context, name string, p registry.Params) (cert.Scheme, error) {
	_, sp := obs.Start(ctx, "compile")
	s, outcome, err := c.getOrCompile(name, p)
	sp.SetAttr("cache", outcome)
	sp.End()
	c.compilePhase.Observe(sp.Duration())
	return s, err
}

// getOrCompile implements the cache lookup and reports the outcome
// ("hit", "miss" or "bypass") alongside the scheme.
func (c *Cache) getOrCompile(name string, p registry.Params) (cert.Scheme, string, error) {
	if !p.Cacheable() {
		c.bypasses.Inc()
		s, err := c.build(name, p)
		return s, "bypass", err
	}
	key, err := c.Key(name, p)
	if err != nil {
		return nil, "error", err
	}
	s, hit, err := c.flights.do(key, func() (cert.Scheme, error) { return c.build(name, p) }, nil)
	if hit {
		c.hits.Inc()
		return s, "hit", err
	}
	c.misses.Inc()
	return s, "miss", err
}

// build compiles one scheme behind the compile fault point and attaches the
// shared per-graph state before the scheme is published to anyone else.
func (c *Cache) build(name string, p registry.Params) (cert.Scheme, error) {
	if err := compileBuild.Inject(); err != nil {
		return nil, err
	}
	s, err := c.reg.Build(name, p)
	if err == nil {
		c.attachDecompCache(s)
	}
	return s, err
}

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	// Hits counts requests served by an existing (or in-flight) compile.
	Hits int64 `json:"hits"`
	// Misses counts requests that triggered a compilation.
	Misses int64 `json:"misses"`
	// Bypasses counts uncacheable requests compiled fresh.
	Bypasses int64 `json:"bypasses"`
	// Size is the number of cached compiled schemes.
	Size int `json:"size"`
}

// Stats returns current counters.
func (c *Cache) Stats() Stats {
	size := c.flights.len()
	return Stats{
		Hits:     c.hits.Value(),
		Misses:   c.misses.Value(),
		Bypasses: c.bypasses.Value(),
		Size:     size,
	}
}

// FormulaStats is a snapshot of the formula canonicalization memo: how
// often raw formula text was re-keyed without a fresh parse.
type FormulaStats struct {
	// Hits counts key requests answered from the memo.
	Hits int64 `json:"hits"`
	// Misses counts spellings that were parsed and canonicalized.
	Misses int64 `json:"misses"`
	// Size is the number of memoized spellings.
	Size int `json:"size"`
}

// FormulaStats returns current canonicalization counters.
func (c *Cache) FormulaStats() FormulaStats {
	c.canonMu.Lock()
	size := len(c.canon)
	c.canonMu.Unlock()
	return FormulaStats{
		Hits:   c.formulaHits.Value(),
		Misses: c.formulaMisses.Value(),
		Size:   size,
	}
}

// Purge drops every cached scheme and memoized formula (counters are
// kept).
func (c *Cache) Purge() {
	c.flights.purge()
	c.canonMu.Lock()
	c.canon = map[string]string{}
	c.canonMu.Unlock()
}
