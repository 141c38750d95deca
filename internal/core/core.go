// Package core implements the generic certification schemes the paper
// uses as context for its main results:
//
//   - Universal: any property has an O(n^2)-bit certification by writing
//     the whole graph into every certificate (§1.2);
//   - ExistentialFO: existential FO sentences with q quantifiers have
//     O(q log n)-bit certifications (Lemma 2.1 / A.2);
//   - Depth2FO: FO sentences of quantifier depth 2 have O(log n)-bit
//     certifications (Lemma 2.1 / A.3) via the paper's classification
//     into "at most one vertex" / "clique" / "dominating vertex".
package core

import (
	"fmt"
	"sort"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/logic"
	"repro/internal/spanning"
)

// Universal certifies an arbitrary decidable property by describing the
// full graph to every vertex: the certificate holds the sorted identifier
// list and the adjacency matrix (O(n^2 + n log n) bits). Each vertex
// checks that all neighbours carry the identical description, that its
// own row matches its actual view, and that the property holds on the
// described graph.
type Universal struct {
	PropertyName string
	Property     func(g *graph.Graph) (bool, error)
}

var _ cert.Scheme = (*Universal)(nil)

// Name implements cert.Scheme.
func (s *Universal) Name() string { return "universal(" + s.PropertyName + ")" }

// Holds implements cert.Scheme.
func (s *Universal) Holds(g *graph.Graph) (bool, error) { return s.Property(g) }

// Prove implements cert.Scheme.
func (s *Universal) Prove(g *graph.Graph) (cert.Assignment, error) {
	holds, err := s.Property(g)
	if err != nil {
		return nil, err
	}
	if !holds {
		return nil, fmt.Errorf("core: %s: property does not hold", s.Name())
	}
	var w bitio.Writer
	encodeGraph(&w, g)
	desc := w.Clone()
	a := make(cert.Assignment, g.N())
	for v := range a {
		a[v] = append(cert.Certificate(nil), desc...)
	}
	return a, nil
}

// maxUniversalEvalOps bounds the model-checking work one formula-driven
// predicate call may trigger (~1.7e7 atom evaluations, well under a
// second). Formulas arrive over HTTP: the wire guards bound parse cost,
// this bounds evaluation cost, so a tiny sentence with a deep quantifier
// prefix ("forallset A. forallset B. ...") errors out instead of pinning
// a server CPU essentially forever.
const maxUniversalEvalOps = 1 << 24

// NewUniversalFormula certifies an arbitrary FO/MSO sentence with the
// universal whole-graph scheme, deciding the property by direct model
// checking (logic.Eval). This is the formula-first replacement for the
// named-predicate dispatch: any sentence works, at the generic scheme's
// O(n^2)-bit price — FO evaluation is n^depth, MSO evaluation is limited
// to logic.MaxSetQuantVertices vertices, and every call refuses work
// beyond maxUniversalEvalOps with an error rather than guessing (the
// named predicates are the scalable path).
func NewUniversalFormula(f logic.Formula) (*Universal, error) {
	if !logic.IsSentence(f) {
		return nil, fmt.Errorf("core: universal formula scheme needs a sentence, got %s", f)
	}
	return &Universal{
		PropertyName: f.String(),
		Property: func(g *graph.Graph) (bool, error) {
			if cost := logic.EvalCost(f, g.N()); cost > maxUniversalEvalOps {
				return false, fmt.Errorf("core: universal(%s): model checking needs ~%.3g atom evaluations on n=%d (limit %d); use a named predicate or a smaller graph",
					f, cost, g.N(), maxUniversalEvalOps)
			}
			return logic.Eval(f, logic.NewModel(g))
		},
	}, nil
}

// Verify implements cert.Scheme.
func (s *Universal) Verify(v cert.View) bool {
	g, err := decodeGraph(v.Cert)
	if err != nil {
		return false
	}
	for _, nb := range v.Neighbors {
		if !sameBits(v.Cert, nb.Cert) {
			return false
		}
	}
	// The row of our own identifier must match our actual neighbourhood.
	self, ok := g.IndexOf(v.ID)
	if !ok {
		return false
	}
	claimed := map[graph.ID]bool{}
	for _, w := range g.Neighbors(self) {
		claimed[g.IDOf(int(w))] = true
	}
	if len(claimed) != len(v.Neighbors) {
		return false
	}
	for _, nb := range v.Neighbors {
		if !claimed[nb.ID] {
			return false
		}
	}
	holds, err := s.Property(g)
	return err == nil && holds
}

func encodeGraph(w *bitio.Writer, g *graph.Graph) {
	w.WriteUvarint(uint64(g.N()))
	ids := make([]graph.ID, g.N())
	for v := 0; v < g.N(); v++ {
		ids[v] = g.IDOf(v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w.WriteUvarint(uint64(id))
	}
	pos := map[graph.ID]int{}
	for i, id := range ids {
		pos[id] = i
	}
	// Upper-triangle adjacency bits in sorted-ID order.
	mat := make([]bool, g.N()*g.N())
	for _, e := range g.Edges() {
		i, j := pos[g.IDOf(e[0])], pos[g.IDOf(e[1])]
		mat[i*g.N()+j] = true
		mat[j*g.N()+i] = true
	}
	for i := 0; i < g.N(); i++ {
		for j := i + 1; j < g.N(); j++ {
			w.WriteBool(mat[i*g.N()+j])
		}
	}
}

func decodeGraph(c cert.Certificate) (*graph.Graph, error) {
	r := bitio.NewReader(c)
	n64, err := r.ReadUvarint()
	if err != nil || n64 == 0 || n64 > 1<<20 {
		return nil, fmt.Errorf("core: bad vertex count")
	}
	n := int(n64)
	ids := make([]graph.ID, n)
	for i := range ids {
		id, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		ids[i] = graph.ID(id)
	}
	g, err := graph.NewWithIDs(ids)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b, err := r.ReadBool()
			if err != nil {
				return nil, err
			}
			if b {
				if err := g.AddEdge(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("core: trailing bits")
	}
	return g, nil
}

func sameBits(a, b cert.Certificate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ExistentialFO is the Lemma A.2 scheme for sentences whose prenex form
// is purely existential: the certificate lists the q witness identifiers,
// the q x q adjacency matrix among them, and a spanning-tree label per
// witness (certifying the witness exists). O(q log n + q^2) bits.
type ExistentialFO struct {
	Formula logic.Formula

	prefix []logic.Quantifier
	matrix logic.Formula
}

var _ cert.Scheme = (*ExistentialFO)(nil)

// NewExistentialFO validates that the sentence is existential and
// prepares its prenex form.
func NewExistentialFO(f logic.Formula) (*ExistentialFO, error) {
	if !logic.IsSentence(f) || !logic.IsFO(f) {
		return nil, fmt.Errorf("core: ExistentialFO needs an FO sentence")
	}
	prefix, matrix, err := logic.Prenex(f)
	if err != nil {
		return nil, err
	}
	for _, q := range prefix {
		if q.Universal {
			return nil, fmt.Errorf("core: %s is not existential", f)
		}
	}
	return &ExistentialFO{Formula: f, prefix: prefix, matrix: matrix}, nil
}

// Name implements cert.Scheme.
func (s *ExistentialFO) Name() string { return fmt.Sprintf("existential-fo(%s)", s.Formula) }

// Holds implements cert.Scheme.
func (s *ExistentialFO) Holds(g *graph.Graph) (bool, error) {
	return logic.Eval(s.Formula, logic.NewModel(g))
}

// witnesses searches for an assignment of the prefix variables satisfying
// the matrix (brute force n^q).
func (s *ExistentialFO) witnesses(g *graph.Graph) ([]int, error) {
	q := len(s.prefix)
	pick := make([]int, q)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == q {
			env := map[logic.Var]int{}
			for j, qu := range s.prefix {
				env[qu.V] = pick[j]
			}
			ok, err := logic.EvalWithAssignment(s.matrix, logic.NewModel(g), env, nil)
			return err == nil && ok
		}
		for v := 0; v < g.N(); v++ {
			pick[i] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	if !rec(0) {
		return nil, fmt.Errorf("core: %s: no witnesses", s.Name())
	}
	return pick, nil
}

// Prove implements cert.Scheme.
func (s *ExistentialFO) Prove(g *graph.Graph) (cert.Assignment, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("core: %s: graph must be connected", s.Name())
	}
	wit, err := s.witnesses(g)
	if err != nil {
		return nil, err
	}
	q := len(wit)
	// Spanning-tree labels rooted at each witness.
	trees := make([][]spanning.Label, q)
	for i, v := range wit {
		labels, err := spanning.LabelsFor(g, v)
		if err != nil {
			return nil, err
		}
		trees[i] = labels
	}
	a := make(cert.Assignment, g.N())
	for v := 0; v < g.N(); v++ {
		var w bitio.Writer
		w.WriteUvarint(uint64(q))
		for _, x := range wit {
			w.WriteUvarint(uint64(g.IDOf(x)))
		}
		for i := 0; i < q; i++ {
			for j := 0; j < q; j++ {
				w.WriteBool(g.HasEdge(wit[i], wit[j]))
			}
		}
		for i := 0; i < q; i++ {
			trees[i][v].Encode(&w)
		}
		a[v] = w.Clone()
	}
	return a, nil
}

// decodedEx is one parsed ExistentialFO certificate.
type decodedEx struct {
	wit    []graph.ID
	adj    [][]bool
	labels []spanning.Label
}

func (s *ExistentialFO) decode(c cert.Certificate) (decodedEx, bool) {
	r := bitio.NewReader(c)
	q64, err := r.ReadUvarint()
	if err != nil || int(q64) != len(s.prefix) {
		return decodedEx{}, false
	}
	q := int(q64)
	out := decodedEx{wit: make([]graph.ID, q), adj: make([][]bool, q), labels: make([]spanning.Label, q)}
	for i := range out.wit {
		id, err := r.ReadUvarint()
		if err != nil {
			return decodedEx{}, false
		}
		out.wit[i] = graph.ID(id)
	}
	for i := 0; i < q; i++ {
		out.adj[i] = make([]bool, q)
		for j := 0; j < q; j++ {
			b, err := r.ReadBool()
			if err != nil {
				return decodedEx{}, false
			}
			out.adj[i][j] = b
		}
	}
	for i := 0; i < q; i++ {
		l, err := spanning.Decode(r)
		if err != nil {
			return decodedEx{}, false
		}
		out.labels[i] = l
	}
	if r.Remaining() != 0 {
		return decodedEx{}, false
	}
	return out, true
}

// Verify implements cert.Scheme.
func (s *ExistentialFO) Verify(v cert.View) bool {
	own, ok := s.decode(v.Cert)
	if !ok {
		return false
	}
	neighbors := make([]decodedEx, len(v.Neighbors))
	for i, nb := range v.Neighbors {
		nd, ok := s.decode(nb.Cert)
		if !ok {
			return false
		}
		// Witness lists and matrices must agree globally.
		for j := range own.wit {
			if nd.wit[j] != own.wit[j] {
				return false
			}
			for k := range own.wit {
				if nd.adj[j][k] != own.adj[j][k] {
					return false
				}
			}
		}
		neighbors[i] = nd
	}
	q := len(own.wit)
	// Matrix sanity: symmetric, loopless.
	for i := 0; i < q; i++ {
		if own.adj[i][i] {
			return false
		}
		for j := 0; j < q; j++ {
			if own.adj[i][j] != own.adj[j][i] {
				return false
			}
		}
	}
	// Spanning trees: structural checks per witness, rooted at it.
	for i := 0; i < q; i++ {
		nls := make([]spanning.NeighborLabel, len(neighbors))
		for k, nd := range neighbors {
			nls[k] = spanning.NeighborLabel{ID: v.Neighbors[k].ID, Label: nd.labels[i]}
		}
		if own.labels[i].Root != own.wit[i] {
			return false
		}
		if !spanning.CheckStructure(v.ID, own.labels[i], nls) {
			return false
		}
	}
	// If we are witness i, our matrix row must match reality and the
	// matrix graph must satisfy the quantifier-free part.
	for i := 0; i < q; i++ {
		if own.wit[i] != v.ID {
			continue
		}
		for j := 0; j < q; j++ {
			if j == i {
				continue
			}
			_, isNb := v.NeighborByID(own.wit[j])
			sameVertex := own.wit[j] == v.ID
			if own.adj[i][j] != (isNb && !sameVertex) {
				return false
			}
		}
		if !s.matrixHolds(own) {
			return false
		}
	}
	return true
}

// matrixHolds evaluates the quantifier-free matrix on the q-vertex graph
// described by the certificate; witnesses sharing an identifier map to
// the same vertex.
func (s *ExistentialFO) matrixHolds(d decodedEx) bool {
	// Deduplicate witness IDs into vertices.
	idToVertex := map[graph.ID]int{}
	var ids []graph.ID
	for _, id := range d.wit {
		if _, ok := idToVertex[id]; !ok {
			idToVertex[id] = len(ids)
			ids = append(ids, id)
		}
	}
	g, err := graph.NewWithIDs(ids)
	if err != nil {
		return false
	}
	for i := range d.wit {
		for j := range d.wit {
			if i < j && d.adj[i][j] {
				u, w := idToVertex[d.wit[i]], idToVertex[d.wit[j]]
				if u != w && !g.HasEdge(u, w) {
					g.MustAddEdge(u, w)
				}
			}
		}
	}
	env := map[logic.Var]int{}
	for i, qu := range s.prefix {
		env[qu.V] = idToVertex[d.wit[i]]
	}
	ok, err := logic.EvalWithAssignment(s.matrix, logic.NewModel(g), env, nil)
	return err == nil && ok
}

// Depth2FO is the Lemma A.3 scheme: any FO sentence of quantifier depth
// at most 2 is, on connected graphs, equivalent to a boolean combination
// of "the graph has at most one vertex", "the graph is a clique" and
// "the graph has a dominating vertex". The prover certifies the exact
// truth values of the three base properties with O(log n) bits (vertex
// count plus up to two evidence trees) and every vertex checks the
// combination against the sentence's truth table, computed once from the
// four prototype graphs K1, K3, K_{1,3} and P4.
type Depth2FO struct {
	Formula logic.Formula
	// verdicts[triple] caches the sentence's value per realizable triple
	// (P1, P2, P3) packed as bits: 4 -> (1,1,1), 3 -> (0,1,1),
	// 1 -> (0,0,1), 0 -> (0,0,0).
	verdicts map[uint8]bool
}

var _ cert.Scheme = (*Depth2FO)(nil)

// NewDepth2FO validates the depth bound and builds the truth table.
func NewDepth2FO(f logic.Formula) (*Depth2FO, error) {
	if !logic.IsSentence(f) || !logic.IsFO(f) {
		return nil, fmt.Errorf("core: Depth2FO needs an FO sentence")
	}
	if logic.QuantifierDepth(f) > 2 {
		return nil, fmt.Errorf("core: %s has quantifier depth %d > 2", f, logic.QuantifierDepth(f))
	}
	prototypes := map[uint8]*graph.Graph{
		tripleKey(true, true, true):    graphgen.Clique(1),
		tripleKey(false, true, true):   graphgen.Clique(3),
		tripleKey(false, false, true):  graphgen.Star(4),
		tripleKey(false, false, false): graphgen.Path(4),
	}
	verdicts := make(map[uint8]bool, len(prototypes))
	for key, proto := range prototypes {
		val, err := logic.Eval(f, logic.NewModel(proto))
		if err != nil {
			return nil, err
		}
		verdicts[key] = val
	}
	return &Depth2FO{Formula: f, verdicts: verdicts}, nil
}

func tripleKey(p1, p2, p3 bool) uint8 {
	var k uint8
	if p1 {
		k |= 4
	}
	if p2 {
		k |= 2
	}
	if p3 {
		k |= 1
	}
	return k
}

// Name implements cert.Scheme.
func (s *Depth2FO) Name() string { return fmt.Sprintf("depth2-fo(%s)", s.Formula) }

func classify(g *graph.Graph) uint8 {
	p1 := g.N() <= 1
	p2 := g.M() == g.N()*(g.N()-1)/2
	p3 := false
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == g.N()-1 {
			p3 = true
			break
		}
	}
	return tripleKey(p1, p2, p3)
}

// Holds implements cert.Scheme: the Lemma A.3 classification decides the
// sentence; tests cross-check it against direct evaluation.
func (s *Depth2FO) Holds(g *graph.Graph) (bool, error) {
	if !g.Connected() {
		return false, fmt.Errorf("core: %s: graph must be connected", s.Name())
	}
	return s.verdicts[classify(g)], nil
}

// Prove implements cert.Scheme. Certificate layout: the 3-bit claimed
// triple, the vertex count n, a count-certified spanning tree (rooted at
// a dominating vertex when P3 holds), and — only when P2 is claimed
// false — a second spanning tree rooted at a non-universal witness.
// Everything is O(log n) bits.
func (s *Depth2FO) Prove(g *graph.Graph) (cert.Assignment, error) {
	holds, err := s.Holds(g)
	if err != nil {
		return nil, err
	}
	if !holds {
		return nil, fmt.Errorf("core: %s: property does not hold", s.Name())
	}
	key := classify(g)
	root := 0
	if key&1 != 0 { // dominating vertex exists: root the count tree there
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) == g.N()-1 {
				root = v
				break
			}
		}
	}
	labels, err := spanning.LabelsFor(g, root)
	if err != nil {
		return nil, err
	}
	var witnessLabels []spanning.Label
	if key&2 == 0 { // not a clique: point a tree at a non-universal vertex
		witness := -1
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) < g.N()-1 {
				witness = v
				break
			}
		}
		if witness == -1 {
			return nil, fmt.Errorf("core: %s: classification claims non-clique but all degrees are n-1", s.Name())
		}
		witnessLabels, err = spanning.LabelsFor(g, witness)
		if err != nil {
			return nil, err
		}
	}
	a := make(cert.Assignment, g.N())
	for v := 0; v < g.N(); v++ {
		var w bitio.Writer
		w.WriteUint(uint64(key), 3)
		w.WriteUvarint(uint64(g.N()))
		labels[v].Encode(&w)
		if witnessLabels != nil {
			witnessLabels[v].Encode(&w)
		}
		a[v] = w.Clone()
	}
	return a, nil
}

// depth2Cert is one decoded Depth2FO certificate.
type depth2Cert struct {
	key     uint8
	n       uint64
	count   spanning.Label
	witness *spanning.Label
}

func decodeDepth2(c cert.Certificate) (depth2Cert, bool) {
	r := bitio.NewReader(c)
	key, err := r.ReadUint(3)
	if err != nil {
		return depth2Cert{}, false
	}
	n, err := r.ReadUvarint()
	if err != nil || n == 0 {
		return depth2Cert{}, false
	}
	out := depth2Cert{key: uint8(key), n: n}
	out.count, err = spanning.Decode(r)
	if err != nil {
		return depth2Cert{}, false
	}
	if out.key&2 == 0 {
		l, err := spanning.Decode(r)
		if err != nil {
			return depth2Cert{}, false
		}
		out.witness = &l
	}
	if r.Remaining() != 0 {
		return depth2Cert{}, false
	}
	return out, true
}

// Verify implements cert.Scheme: the claimed triple must make the
// sentence true, n is certified by the count tree, and each base claim is
// checked by the vertices that can refute it (degrees against n).
func (s *Depth2FO) Verify(v cert.View) bool {
	own, ok := decodeDepth2(v.Cert)
	if !ok || !s.verdicts[own.key] {
		return false
	}
	countNbs := make([]spanning.NeighborLabel, len(v.Neighbors))
	var witnessNbs []spanning.NeighborLabel
	for i, nb := range v.Neighbors {
		nd, ok := decodeDepth2(nb.Cert)
		if !ok || nd.key != own.key || nd.n != own.n {
			return false
		}
		countNbs[i] = spanning.NeighborLabel{ID: nb.ID, Label: nd.count}
		if own.witness != nil {
			if nd.witness == nil {
				return false
			}
			witnessNbs = append(witnessNbs, spanning.NeighborLabel{ID: nb.ID, Label: *nd.witness})
		}
	}
	// Count tree: structure, counts, and n at the root.
	if !spanning.CheckStructure(v.ID, own.count, countNbs) ||
		!spanning.CheckCounts(v.ID, own.count, countNbs) {
		return false
	}
	if v.ID == own.count.Root && own.count.Count != own.n {
		return false
	}
	n := int(own.n)
	p1 := own.key&4 != 0
	p2 := own.key&2 != 0
	p3 := own.key&1 != 0
	// P1 is refutable by every vertex once n is certified.
	if p1 != (n == 1) {
		return false
	}
	// P2 true: every vertex must be universal. P2 false: the witness tree
	// must be structurally valid and its root non-universal.
	if p2 && v.Degree() != n-1 {
		return false
	}
	if !p2 {
		if own.witness == nil || !spanning.CheckStructure(v.ID, *own.witness, witnessNbs) {
			return false
		}
		if v.ID == own.witness.Root && v.Degree() >= n-1 {
			return false
		}
	}
	// P3 true: the count-tree root is the dominating vertex. P3 false:
	// nobody may be universal.
	if p3 && v.ID == own.count.Root && v.Degree() != n-1 {
		return false
	}
	if !p3 && v.Degree() >= n-1 && n > 1 {
		return false
	}
	return true
}
