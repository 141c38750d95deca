// Package compactcert is the public API of the reproduction of
// "What can be certified compactly? Compact local certification of MSO
// properties in tree-like graphs" (Bousquet, Feuilloley, Pierron,
// PODC 2022).
//
// It exposes, behind one facade:
//
//   - the local certification model (schemes, certificate assignments,
//     a sequential referee and a sharded network simulator, which splits
//     the vertices into contiguous shards over a bounded worker pool);
//   - the paper's certification schemes: constant-size MSO certification
//     on trees (Theorem 2.2), O(t log n) treedepth certification
//     (Theorem 2.4), kernelization-based MSO/FO certification on
//     bounded-treedepth graphs (Theorem 2.6), minor-freeness schemes
//     (Corollary 2.7), and the generic baselines (universal, existential
//     FO, depth-2 FO — Lemma 2.1);
//   - tree decompositions for the treewidth scheme (heuristic and exact
//     construction, validation) and graph generators.
//
// The lower-bound machinery (Theorems 2.3 and 2.5: gadget builders,
// string coders, the communication-complexity reduction) is not part of
// the facade; cmd/experiments drives it.
//
// Quick start:
//
//	g := compactcert.RandomTree(100, rng)
//	scheme, _ := compactcert.TreeMSOScheme("perfect-matching")
//	assignment, result, err := compactcert.ProveAndVerify(g, scheme)
package compactcert

import (
	"context"
	"math/rand"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/logic"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/rooted"
	"repro/internal/treedepth"
	"repro/internal/treewidth"
)

// Re-exported core types. See the internal packages for full
// documentation of each.
type (
	// Graph is an undirected, loopless graph with unique vertex IDs.
	Graph = graph.Graph
	// Scheme is a local certification: Prove assigns certificates,
	// Verify runs at each vertex on its radius-1 view.
	Scheme = cert.Scheme
	// Assignment maps vertex indices to certificates.
	Assignment = cert.Assignment
	// Result aggregates the per-vertex verdicts.
	Result = cert.Result
	// Formula is an FO/MSO formula over graphs.
	Formula = logic.Formula
)

// NewGraph creates an empty graph on n vertices with IDs 1..n.
func NewGraph(n int) *Graph { return graph.New(n) }

// ParseFormula parses the textual FO/MSO syntax, e.g.
// "forall x. forall y. x = y | x ~ y | exists z. x ~ z & z ~ y".
func ParseFormula(src string) (Formula, error) { return logic.Parse(src) }

// ProveAndVerify asks the scheme for an honest assignment and runs the
// sequential referee.
func ProveAndVerify(g *Graph, s Scheme) (Assignment, Result, error) {
	return cert.ProveAndVerify(g, s)
}

// RunDistributed executes one verification round on the sharded network
// simulator: one certificate-exchange round, vertices partitioned over a
// bounded worker pool, verdicts identical to the sequential referee.
func RunDistributed(ctx context.Context, g *Graph, s Scheme, a Assignment) (netsim.Report, error) {
	return netsim.Run(ctx, g, s, a)
}

// SchemeParams parameterises a registry scheme factory; see BuildScheme.
type SchemeParams = registry.Params

// SchemeInfo describes a registered scheme kind: name, certificate-size
// bound, required graph class, and the parameters its factory consumes.
type SchemeInfo = registry.Info

// Param names a factory argument in SchemeInfo.Needs. Entries declaring
// both ParamProperty and ParamFormula treat them as alternatives, with the
// formula superseding the enum lookup.
const (
	ParamProperty = registry.ParamProperty
	ParamFormula  = registry.ParamFormula
	ParamT        = registry.ParamT
)

// Schemes lists every scheme kind the module implements — the same
// listing cmd/certify derives its flag help from and cmd/certserver
// serves at GET /schemes.
func Schemes() []SchemeInfo { return registry.Default().List() }

// BuildScheme constructs any registered scheme by kind name. The named
// helpers below (TreeMSOScheme, TreedepthScheme, ...) are convenience
// wrappers over this single entry point.
func BuildScheme(name string, p SchemeParams) (Scheme, error) {
	return registry.Default().Build(name, p)
}

// TreeMSOProperties lists the property names TreeMSOScheme accepts,
// straight from the registry entry.
func TreeMSOProperties() []string { return registry.TreeMSOProperties() }

// TreeMSOScheme returns a Theorem 2.2 scheme (O(1)-bit certificates on
// trees) for a named property from the built-in automata library; see
// TreeMSOProperties for the admissible names.
func TreeMSOScheme(property string) (Scheme, error) {
	return BuildScheme("tree-mso", SchemeParams{Property: property})
}

// TreeMSOFormulaScheme compiles an arbitrary sentence into a Theorem 2.2
// scheme on trees: library sentences (in any alpha-equivalent spelling)
// map to their hand-built automata, other FO sentences compile via rank-k
// type discovery.
func TreeMSOFormulaScheme(sentence string) (Scheme, error) {
	return BuildScheme("tree-mso", SchemeParams{Formula: sentence})
}

// TreeFOScheme compiles an FO sentence into a Theorem 2.2 scheme via
// rank-k type discovery (constant-size certificates on trees).
func TreeFOScheme(sentence string) (Scheme, error) {
	return BuildScheme("tree-fo", SchemeParams{Formula: sentence})
}

// CanonicalFormula parses a sentence and renders the canonical form the
// engine keys its compile cache on: negation normal form with bound
// variables alpha-renamed, so equivalent spellings share one compiled
// scheme.
func CanonicalFormula(sentence string) (string, error) {
	f, err := logic.Parse(sentence)
	if err != nil {
		return "", err
	}
	return logic.CanonicalString(f), nil
}

// TreedepthScheme returns the Theorem 2.4 scheme certifying
// "treedepth <= t" with O(t log n)-bit certificates.
func TreedepthScheme(t int) Scheme { return &treedepth.Scheme{T: t} }

// ModelProvider supplies an elimination-tree witness for a graph, letting
// provers skip the exponential exact computation on large instances.
type ModelProvider = func(*Graph) (*rooted.Tree, error)

// TreedepthSchemeWithModel is TreedepthScheme with a witness provider
// (e.g. the second return value of RandomBoundedTreedepth).
func TreedepthSchemeWithModel(t int, provider ModelProvider) Scheme {
	return &treedepth.Scheme{T: t, ModelProvider: provider}
}

// KernelMSOSchemeWithModel is KernelMSOScheme with a witness provider.
func KernelMSOSchemeWithModel(t int, sentence string, provider ModelProvider) (Scheme, error) {
	return BuildScheme("kernel-mso", SchemeParams{T: t, Formula: sentence, Provider: provider})
}

// KernelMSOScheme returns the Theorem 2.6 scheme certifying an FO/MSO
// sentence on graphs of treedepth at most t, with O(t log n + f(t, phi))
// bit certificates.
func KernelMSOScheme(t int, sentence string) (Scheme, error) {
	return BuildScheme("kernel-mso", SchemeParams{T: t, Formula: sentence})
}

// Decomposition is a tree decomposition: bags plus the decomposition
// tree's adjacency (see internal/treewidth).
type Decomposition = treewidth.Decomposition

// DecompositionProvider supplies a tree-decomposition witness for a graph,
// letting the tw-mso prover skip recomputation.
type DecompositionProvider = func(*Graph) (*Decomposition, error)

// TreewidthMSOProperties lists the property names TreewidthMSOScheme
// accepts, straight from the registry entry.
func TreewidthMSOProperties() []string { return registry.TreewidthMSOProperties() }

// TreewidthMSOScheme returns the bounded-treewidth MSO certification
// scheme: "the graph admits a tree decomposition of width <= t and
// satisfies the named property", with O(t log n)-bit certificates carrying
// each vertex's home bag and DP witness.
func TreewidthMSOScheme(t int, property string) (Scheme, error) {
	return BuildScheme("tw-mso", SchemeParams{Property: property, T: t})
}

// TreewidthMSOSchemeWithDecomposition is TreewidthMSOScheme with a
// decomposition witness (e.g. the second return value of RandomPartialKTree).
func TreewidthMSOSchemeWithDecomposition(t int, property string, provider DecompositionProvider) (Scheme, error) {
	return BuildScheme("tw-mso", SchemeParams{Property: property, T: t, DecompProvider: provider})
}

// TreewidthMSOFormulaScheme certifies "treewidth <= t AND the sentence"
// for any sentence of the clique-local EMSO fragment
// (existsset* forall* matrix) — e.g. colorability encodings or
// triangle-freeness.
func TreewidthMSOFormulaScheme(t int, sentence string) (Scheme, error) {
	return BuildScheme("tw-mso", SchemeParams{Formula: sentence, T: t})
}

// UniversalFormulaScheme certifies an arbitrary FO/MSO sentence with the
// generic whole-graph scheme, decided by direct model checking (MSO
// evaluation is limited to small graphs; FO costs n^depth).
func UniversalFormulaScheme(sentence string) (Scheme, error) {
	return BuildScheme("universal", SchemeParams{Formula: sentence})
}

// HeuristicTreeDecomposition computes a tree decomposition with the better
// of the min-fill and min-degree elimination heuristics, reporting which
// won: "min-fill" or "min-degree", or "blocks" when a graph above 4,096
// vertices was split into biconnected blocks, each with its own winner.
func HeuristicTreeDecomposition(g *Graph) (*Decomposition, string, error) {
	return treewidth.HeuristicCtx(context.TODO(), g)
}

// ExactTreewidth computes the exact treewidth of a graph
// (n <= treewidth.ExactLimit) and an optimal decomposition by
// branch-and-bound over elimination orders.
func ExactTreewidth(g *Graph) (int, *Decomposition, error) {
	return treewidth.ExactCtx(context.TODO(), g)
}

// ValidateDecomposition checks coverage, edge coverage and bag-trace
// connectivity of a claimed tree decomposition.
func ValidateDecomposition(g *Graph, d *Decomposition) error { return treewidth.Validate(g, d) }

// PathMinorFreeScheme returns the Corollary 2.7 scheme for
// P_t-minor-freeness (O(log n) bits).
func PathMinorFreeScheme(t int) (Scheme, error) {
	return BuildScheme("pt-minor-free", SchemeParams{T: t})
}

// CycleMinorFreeScheme returns the Corollary 2.7 scheme for
// C_t-minor-freeness (O(log n) bits per block membership).
func CycleMinorFreeScheme(t int) (Scheme, error) {
	return BuildScheme("ct-minor-free", SchemeParams{T: t})
}

// UniversalScheme certifies an arbitrary decidable property with
// O(n^2)-bit whole-graph certificates — the paper's generic upper bound.
func UniversalScheme(name string, property func(*Graph) (bool, error)) Scheme {
	s, err := BuildScheme("universal", SchemeParams{Property: name, PropertyFunc: property})
	if err != nil {
		// Unreachable: the factory accepts any name once a predicate is
		// supplied.
		panic(err)
	}
	return s
}

// ExistentialFOScheme returns the Lemma 2.1 scheme for purely existential
// FO sentences (O(q log n) bits).
func ExistentialFOScheme(sentence string) (Scheme, error) {
	return BuildScheme("existential-fo", SchemeParams{Formula: sentence})
}

// Depth2FOScheme returns the Lemma 2.1 scheme for FO sentences of
// quantifier depth at most 2 (O(log n) bits).
func Depth2FOScheme(sentence string) (Scheme, error) {
	return BuildScheme("depth2-fo", SchemeParams{Formula: sentence})
}

// Generators re-exported for examples and downstream users.

// Path returns the path graph P_n.
func Path(n int) *Graph { return graphgen.Path(n) }

// Cycle returns the cycle graph C_n.
func Cycle(n int) *Graph { return graphgen.Cycle(n) }

// Star returns the star K_{1,n-1}.
func Star(n int) *Graph { return graphgen.Star(n) }

// RandomTree returns a uniformly random labelled tree.
func RandomTree(n int, rng *rand.Rand) *Graph { return graphgen.RandomTree(n, rng) }

// RandomBoundedTreedepth returns a random connected graph of treedepth at
// most t together with a witness usable as a model provider.
func RandomBoundedTreedepth(n, t int, density float64, rng *rand.Rand) (*Graph, func(*Graph) (*rooted.Tree, error)) {
	g, parents := graphgen.BoundedTreedepth(n, t, density, rng)
	provider := func(gg *Graph) (*rooted.Tree, error) {
		return treedepth.FromParentSlice(gg, parents)
	}
	return g, provider
}

// RandomKTree returns a random k-tree (treewidth exactly k for n > k)
// together with its ground-truth decomposition witness.
func RandomKTree(n, k int, rng *rand.Rand) (*Graph, DecompositionProvider) {
	g, attach := graphgen.KTree(n, k, rng)
	return g, func(gg *Graph) (*Decomposition, error) {
		return treewidth.FromKTree(gg.N(), k, attach)
	}
}

// RandomPartialKTree returns a random connected partial k-tree (treewidth
// <= k by construction; each optional edge kept with probability keepProb)
// together with its ground-truth decomposition witness.
func RandomPartialKTree(n, k int, keepProb float64, rng *rand.Rand) (*Graph, DecompositionProvider) {
	g, attach := graphgen.PartialKTree(n, k, keepProb, rng)
	return g, func(gg *Graph) (*Decomposition, error) {
		return treewidth.FromKTree(gg.N(), k, attach)
	}
}

// ExactTreedepth computes the exact treedepth of a connected graph
// (n <= 64) and an optimal elimination tree.
func ExactTreedepth(g *Graph) (int, *rooted.Tree, error) { return treedepth.Exact(g) }

// Tamper utilities for fault-injection demos and soundness sweeps.

// Tamper is a named adversarial corruption of an assignment; Apply reports
// whether it actually changed anything.
type Tamper = cert.Tamper

// StandardTampers returns the adversary family soundness sweeps use: bit
// flips, certificate swap (replay), truncation, and forgery.
func StandardTampers() []Tamper { return cert.StandardTampers() }

// FlipRandomBits returns a corrupted copy of the assignment.
func FlipRandomBits(a Assignment, k int, rng *rand.Rand) Assignment {
	out, _ := cert.FlipBits(k).Apply(a, rng)
	return out
}

// SwapTwoCertificates returns a copy with two certificates exchanged.
func SwapTwoCertificates(a Assignment, rng *rand.Rand) Assignment {
	out, _ := cert.SwapCertificates().Apply(a, rng)
	return out
}

// RunSoundnessSweep applies every standard tamper `trials` times to the
// honest assignment and verifies each corrupted variant on the sharded
// network simulator, reporting per-tamper detection statistics.
func RunSoundnessSweep(ctx context.Context, g *Graph, s Scheme, honest Assignment, trials int, seed int64) (netsim.SweepReport, error) {
	return netsim.Sweep(ctx, g, s, honest, trials, seed)
}
