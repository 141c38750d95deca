// Package compile is the formula compilation layer of the certification
// engine: it lowers a parsed FO/MSO sentence into whichever certification
// backend the registry entry names —
//
//   - Tree: a Theorem 2.2 scheme on trees. Library MSO/FO sentences are
//     recognized by canonical form (NNF + alpha-renaming) and mapped to
//     their hand-built UOP automata; other FO sentences compile through
//     rank-k type discovery (internal/automata); MSO sentences outside
//     the library are rejected with an explanatory error.
//   - Treewidth: a Courcelle-style property for the tw-mso scheme, via
//     the clique-local EMSO compiler (internal/treewidth).
//   - Universal: the generic whole-graph scheme with the sentence decided
//     by direct model checking (internal/core).
//
// The package also owns the enum alias tables: every property name the
// registry historically dispatched on ("perfect-matching", "2-colorable",
// "connected", ...) is defined here as an alias for a library sentence, so
// the enum path and the formula path provably certify the same thing —
// the three per-scheme property switches collapse into this one table.
package compile

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/treewidth"
)

// MetricBackends counts sentence lowerings by backend, labeled
// backend=library|rankk|emso|modelcheck. The counters live in the
// package-level obs.Default() registry — this layer has no handle on a
// server's registry, and servers merge Default into their exposition.
const MetricBackends = "compile_backend_total"

// countBackend records one lowering through the named backend.
func countBackend(backend string) {
	obs.Default().Counter(MetricBackends,
		"formula lowerings by certification backend",
		obs.L("backend", backend)).Inc()
}

// Alias is one enum property name defined as a library sentence.
type Alias struct {
	// Kind is the registry scheme kind the name belongs to.
	Kind string
	// Name is the historic enum value.
	Name string
	// Formula is the defining sentence.
	Formula logic.Formula
}

// Source renders the defining sentence (for docs and listings).
func (a Alias) Source() string { return a.Formula.String() }

// treeBuilder couples a tree-mso alias with its hand-built automaton
// scheme. The canonical form of the alias sentence is the dispatch key, so
// any alpha-variant or implies-variant spelling of a library sentence hits
// the same automaton the enum name builds.
type treeBuilder struct {
	alias Alias
	build func() (*automata.TreeScheme, error)
}

var treeBuilders = []treeBuilder{
	{Alias{"tree-mso", "perfect-matching", logic.PerfectMatching()}, automata.NewPerfectMatchingScheme},
	{Alias{"tree-mso", "is-star", logic.DiameterAtMost2()}, automata.NewStarScheme},
	{Alias{"tree-mso", "max-degree-<=2", logic.MaxDegreeAtMost(2)}, func() (*automata.TreeScheme, error) { return automata.NewMaxDegreeScheme(2) }},
	{Alias{"tree-mso", "max-degree-<=3", logic.MaxDegreeAtMost(3)}, func() (*automata.TreeScheme, error) { return automata.NewMaxDegreeScheme(3) }},
	{Alias{"tree-mso", "diameter-<=4", logic.DiameterAtMost(4)}, func() (*automata.TreeScheme, error) { return automata.NewDiameterScheme(4) }},
	{Alias{"tree-mso", "leaves->=3", logic.LeavesAtLeast(3)}, func() (*automata.TreeScheme, error) { return automata.NewLeavesAtLeastScheme(3) }},
}

// universalAliases names the sentences behind the universal enum. The
// names additionally keep their native Go predicates in the registry (a
// formula evaluates by exhaustive model checking, which for MSO sentences
// is capped at logic.MaxSetQuantVertices vertices — the native predicates
// have no such limit, so the enum path stays the scalable one). The
// tw-mso aliases are read off treewidth's property library, whose
// entries are compiled library sentences.
var universalAliases = []Alias{
	{"universal", "connected", logic.Connected()},
	{"universal", "diameter-<=2", logic.DiameterAtMost2()},
	{"universal", "is-tree", logic.IsTree()},
}

// canonicalTreeIndex maps canonical sentence forms to tree builders.
var canonicalTreeIndex = func() map[string]treeBuilder {
	idx := make(map[string]treeBuilder, len(treeBuilders))
	for _, b := range treeBuilders {
		idx[logic.CanonicalString(b.alias.Formula)] = b
	}
	return idx
}()

// Aliases lists the enum aliases of a scheme kind, in enum order.
func Aliases(kind string) []Alias {
	switch kind {
	case "tree-mso":
		out := make([]Alias, len(treeBuilders))
		for i, b := range treeBuilders {
			out[i] = b.alias
		}
		return out
	case "tw-mso":
		names := treewidth.Properties()
		out := make([]Alias, len(names))
		for i, name := range names {
			p, _ := treewidth.PropertyByName(name) // every listed name resolves
			out[i] = Alias{"tw-mso", name, p.Phi.Source}
		}
		return out
	case "universal":
		return append([]Alias(nil), universalAliases...)
	default:
		return nil
	}
}

// AliasNames lists the enum values of a scheme kind, in enum order.
func AliasNames(kind string) []string {
	aliases := Aliases(kind)
	out := make([]string, len(aliases))
	for i, a := range aliases {
		out[i] = a.Name
	}
	return out
}

// AliasFormula resolves an enum value to its defining sentence.
func AliasFormula(kind, name string) (logic.Formula, bool) {
	for _, a := range Aliases(kind) {
		if a.Name == name {
			return a.Formula, true
		}
	}
	return nil, false
}

// aliasKey names one enum value of one scheme kind.
type aliasKey struct{ kind, name string }

// aliasCacheKeys maps every tree-mso and tw-mso enum value to the
// canonical form of its alias sentence. The sentences are constants, so
// the map is built once, at package initialisation, and the engine's
// lookup on every compile-cache request neither lists the aliases nor
// canonicalises a sentence.
var aliasCacheKeys = func() map[aliasKey]string {
	keys := map[aliasKey]string{}
	for _, kind := range []string{"tree-mso", "tw-mso"} {
		for _, a := range Aliases(kind) {
			keys[aliasKey{kind, a.Name}] = logic.CanonicalString(a.Formula)
		}
	}
	return keys
}()

// PropertyCacheKey returns the canonical sentence an enum value compiles
// through, for scheme kinds whose enum path is the formula path (tree-mso,
// tw-mso). The engine uses it to give an enum request and an equivalent
// formula request the same compile-cache key. Universal enum names keep
// native predicates distinct from the formula path and report false.
func PropertyCacheKey(kind, name string) (string, bool) {
	key, ok := aliasCacheKeys[aliasKey{kind, name}]
	return key, ok
}

// Tree lowers a sentence to a Theorem 2.2 certification scheme on trees:
// canonical library match first (hand-built automaton, the same object the
// enum name builds), then rank-k type discovery for FO, with a clear
// error for MSO sentences outside the library.
func Tree(f logic.Formula) (cert.Scheme, error) {
	if !logic.IsSentence(f) {
		return nil, fmt.Errorf("compile: tree scheme needs a sentence, got %s", f)
	}
	if b, ok := canonicalTreeIndex[logic.CanonicalString(f)]; ok {
		countBackend("library")
		return b.build()
	}
	if logic.IsFO(f) {
		countBackend("rankk")
		return automata.NewTypeScheme(f)
	}
	return nil, fmt.Errorf("compile: MSO sentence %s is outside the tree automaton library "+
		"(library sentences: %v); FO sentences compile via type discovery", f, AliasNames("tree-mso"))
}

// Treewidth lowers a sentence to a tw-mso property via the clique-local
// EMSO compiler.
func Treewidth(f logic.Formula) (treewidth.Property, error) {
	countBackend("emso")
	if name, ok := aliasNameFor("tw-mso", f); ok {
		// Library sentences keep their short display name.
		if p, ok := treewidth.PropertyByName(name); ok {
			return p, nil
		}
	}
	return treewidth.PropertyFromFormula(f)
}

// Universal lowers a sentence to the generic whole-graph scheme, deciding
// it by direct model checking.
func Universal(f logic.Formula) (cert.Scheme, error) {
	countBackend("modelcheck")
	return core.NewUniversalFormula(f)
}

// aliasNameFor finds the enum value whose sentence is alpha-equivalent to f.
func aliasNameFor(kind string, f logic.Formula) (string, bool) {
	canon := logic.CanonicalString(f)
	for _, a := range Aliases(kind) {
		if logic.CanonicalString(a.Formula) == canon {
			return a.Name, true
		}
	}
	return "", false
}
