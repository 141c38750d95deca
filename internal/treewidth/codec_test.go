package treewidth

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
)

// gammaBits is the length of bitio's Elias-gamma code of v.
func gammaBits(v uint64) int { return 2*bits.Len64(v+1) - 1 }

// certBitsBound is the bound the MSOScheme comment states on one
// certificate: a bag of at most t+1 entries of at most w bits each, at
// depth at most depth, with m witness bits. Every field's length grows
// with its argument, so the sum bounds every certificate it covers.
func certBitsBound(t, w int, depth uint64, m int) int {
	return gammaBits(uint64(t+1)) + gammaBits(uint64(w)) + (t+1)*(w+1) +
		bits.Len(uint(t+1)) + gammaBits(depth) + m + guardBits
}

// randomPayload returns a payload of size entries whose bag id is entry
// index: positive, strictly increasing identifiers of a random bit length
// up to 63, the last math.MaxInt64 when top is set, a depth up to 2⁴⁰, a
// random row and an m-bit witness word.
func randomPayload(rng *rand.Rand, size, index, m int, top bool) Payload {
	width := bits.Len(uint(size)) + rng.Intn(maxIDBits-bits.Len(uint(size))+1)
	largest := int64(1)<<(width-1) - 1 + int64(1)<<(width-1) // 2^width - 1 without overflow
	seen := map[graph.ID]bool{}
	var p Payload
	for len(p.Bag) < size {
		id := graph.ID(1 + rng.Int63n(largest))
		if !seen[id] {
			seen[id] = true
			p.Bag = append(p.Bag, id)
		}
	}
	slices.Sort(p.Bag)
	if top {
		p.Bag[size-1] = math.MaxInt64 // every other entry is below it
	}
	p.BagID = p.Bag[index]
	p.Depth = uint64(rng.Int63n(1<<40 + 1))
	for range p.Bag {
		p.Row = append(p.Row, rng.Intn(2) == 1)
	}
	p.State = uint64(rng.Int63n(1 << m))
	return p
}

// TestPayloadRoundTrip: random payloads decode to themselves through the
// reference DecodePayload and through the round parse, for bag sizes 1 to
// T+1 on both sides of recordBag (inline and spilled records), the bag id
// at every index, identifiers up to 2⁶³−1 and depths up to 2⁴⁰; the guard
// binds a certificate to its owner, and truncations are refused.
func TestPayloadRoundTrip(t *testing.T) {
	const width = recordBag + 2
	rng := rand.New(rand.NewSource(1))
	var rd parseRound
	for _, m := range []int{0, 3} {
		rd.init(width, m, 1)
		for size := 1; size <= width+1; size++ {
			for index := 0; index < size; index++ {
				for trial := 0; trial < 4; trial++ {
					p := randomPayload(rng, size, index, m, trial == 2)
					switch trial {
					case 0:
						p.Depth = 0
					case 1:
						p.Depth = 1 << 40
					}
					owner := p.Bag[rng.Intn(size)]
					c := EncodePayload(p, owner, m)
					got, ok := DecodePayload(c, owner, m)
					if !ok || got.BagID != p.BagID || got.Depth != p.Depth || got.State != p.State ||
						!slices.Equal(got.Bag, p.Bag) || !slices.Equal(got.Row, p.Row) {
						t.Fatalf("DecodePayload: %+v (ok=%v), want %+v", got, ok, p)
					}
					rd.parse(0, owner, c)
					rec, bag, row := rd.entry(0)
					if rec[recBagID] != p.BagID || uint64(rec[recDepth]) != p.Depth || !slices.Equal(bag, p.Bag) || rd.word(0) != p.State {
						t.Fatalf("round parse: record %v, bag %v, word %d; want %+v", rec[:recBag], bag, rd.word(0), p)
					}
					for k, b := range p.Row {
						if rowBit(row, k) != b {
							t.Fatalf("round parse: row bit %d is %v, want row %v", k, rowBit(row, k), p.Row)
						}
					}
				}
			}
		}
	}
	p := Payload{BagID: 3, Depth: 2, Bag: []graph.ID{3, 7, 19}, Row: []bool{true, false, true}, State: 2}
	c := EncodePayload(p, 7, 3)
	// The guard binds the certificate to its owner.
	if _, ok := DecodePayload(c, 8, 3); ok {
		t.Fatal("decode accepted a certificate bound to another vertex")
	}
	// Truncations are refused.
	for cut := 1; cut < len(c); cut += 7 {
		if _, ok := DecodePayload(c[:len(c)-cut], 7, 3); ok {
			t.Fatalf("decode accepted a certificate truncated by %d bits", cut)
		}
	}
}

// TestCertificateFieldSizes pins the paper's measure, certificate bits,
// field by field on honest proofs: tw-bound at T=6 on certify-large's
// shape (a 20,000-vertex partial 4-tree, heuristic decomposition) and
// 3-colorable at T=2 on a 20,000-vertex partial 2-tree (its generator's
// decomposition). Every certificate is exactly the sum of its fields —
// bag size and entry width w in Elias gamma, the entries at w bits each
// with w at most the bit length of the graph's largest identifier, the
// bag id index in bits.Len(size) bits, the depth in gamma, one row bit
// per entry, the witness bits and the guard — and the largest is within
// certBitsBound at the deepest bag. Coding every identifier in Elias
// gamma instead, about 2·log n bits each, exceeds that bound: 185 bits
// on the partial 4-tree and 141 on the partial 2-tree.
func TestCertificateFieldSizes(t *testing.T) {
	for _, c := range []struct {
		n, k, t int
		prop    string
		witness bool
	}{
		{20_000, 4, 6, "tw-bound", false},
		{20_000, 2, 2, "3-colorable", true},
	} {
		g, attach := graphgen.PartialKTree(c.n, c.k, 0.85, rand.New(rand.NewSource(1)))
		prop, ok := PropertyByName(c.prop)
		if !ok {
			t.Fatalf("property %s missing", c.prop)
		}
		s := &MSOScheme{T: c.t, Prop: prop}
		if c.witness {
			s.Decomps = DecompFunc(func(gg *graph.Graph) (*Decomposition, error) { return FromKTree(gg.N(), c.k, attach) })
		}
		a, err := s.ProveCtx(context.Background(), g)
		if err != nil {
			t.Fatalf("%s: %v", c.prop, err)
		}
		m := prop.Phi.NumSets()
		maxWidth := bits.Len64(uint64(g.MaxID()))
		var deepest uint64
		for v, cc := range a {
			p, ok := DecodePayload(cc, g.IDOf(v), m)
			if !ok {
				t.Fatalf("%s: certificate of %d does not decode", c.prop, v)
			}
			size := len(p.Bag)
			w := bits.Len64(uint64(p.Bag[size-1]))
			if size > c.t+1 || w > maxWidth {
				t.Fatalf("%s: vertex %d: %d entries of %d bits, want at most %d of at most %d", c.prop, v, size, w, c.t+1, maxWidth)
			}
			fields := gammaBits(uint64(size)) + gammaBits(uint64(w)) + size*w + bits.Len(uint(size)) +
				gammaBits(p.Depth) + size + m + guardBits
			if len(cc) != fields {
				t.Fatalf("%s: vertex %d: certificate of %d bits, its fields sum to %d (%+v)", c.prop, v, len(cc), fields, p)
			}
			deepest = max(deepest, p.Depth)
		}
		bound := certBitsBound(c.t, maxWidth, deepest, m)
		t.Logf("%s T=%d n=%d: max %d bits, mean %.1f, bound %d (depth %d)", c.prop, c.t, c.n, a.MaxBits(),
			float64(a.TotalBits())/float64(len(a)), bound, deepest)
		if a.MaxBits() > bound {
			t.Errorf("%s: largest certificate %d bits, above the bound %d", c.prop, a.MaxBits(), bound)
		}
	}
}

// TestBagTampersKeepTheirMeaning: corrupt-bag-id names an owner outside
// its bag through an index past the bag's end, so its certificate no
// longer decodes; corrupt-bag-contents swaps the owner's entry for a
// fresh, larger identifier and points the index at it, so its certificate
// decodes — and either claims a bag id above its own vertex's, which the
// verifier rejects, or misses the vertex from its bag.
func TestBagTampersKeepTheirMeaning(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, attach := graphgen.PartialKTree(60, 2, 0.7, rng)
	g = shuffledIDs(t, g, rng)
	for _, name := range []string{"tw-bound", "3-colorable"} {
		prop, _ := PropertyByName(name)
		m := prop.Phi.NumSets()
		s := &MSOScheme{T: 2, Prop: prop, Decomps: DecompFunc(func(gg *graph.Graph) (*Decomposition, error) {
			return FromKTree(gg.N(), 2, attach)
		})}
		honest, err := s.Prove(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, tm := range BagTampers() {
			for trial := 0; trial < 50; trial++ {
				out, mutated := tm.Apply(honest, rng)
				if !mutated {
					t.Fatalf("%s: %s mutated nothing", name, tm.Name)
				}
				v := changedVertex(t, honest, out)
				id := g.IDOf(v)
				p, ok := DecodePayload(out[v], id, m)
				switch tm.Name {
				case "corrupt-bag-id":
					if ok {
						t.Fatalf("%s: %s: vertex %d's certificate decodes: %+v", name, tm.Name, v, p)
					}
				case "corrupt-bag-contents":
					if !ok {
						t.Fatalf("%s: %s: vertex %d's certificate does not decode", name, tm.Name, v)
					}
					if p.BagID != p.Bag[len(p.Bag)-1] || (p.BagID <= id && slices.Contains(p.Bag, id)) {
						t.Fatalf("%s: %s: vertex %d (id %d) decodes to %+v", name, tm.Name, v, id, p)
					}
				default:
					t.Fatalf("unknown bag tamper %s", tm.Name)
				}
				if res, err := cert.RunSequential(g, s, out); err != nil || !slices.Contains(res.Rejecters, v) {
					t.Fatalf("%s: %s: vertex %d not among the rejecters %v (%v)", name, tm.Name, v, res.Rejecters, err)
				}
			}
		}
	}
}

// changedVertex returns the one vertex whose certificate differs between
// a and b.
func changedVertex(t *testing.T, a, b cert.Assignment) int {
	t.Helper()
	v := -1
	for u := range a {
		if !slices.Equal(a[u], b[u]) {
			if v >= 0 {
				t.Fatalf("certificates of %d and %d both changed", v, u)
			}
			v = u
		}
	}
	if v < 0 {
		t.Fatal("no certificate changed")
	}
	return v
}
