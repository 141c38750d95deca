package treewidth

import (
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
)

// The decomposition-aware adversary: instead of flipping random bits (and
// tripping the guard), these tampers decode a tw-mso certificate, corrupt
// the decomposition fields semantically, and re-encode with a freshly
// forged guard — modelling an adversary that knows the certificate format.
// Detection therefore rests entirely on the decomposition checks, not on
// the integrity guard. On certificates of other schemes the decode fails
// and the tamper reports a no-op, so the kinds are safe to include in
// mixed sweeps.

// recoverOwner identifies the vertex a tw-mso certificate is bound to by
// trying every bag member against the guard (the owner is always in its
// own bag).
func recoverOwner(c cert.Certificate) (graph.ID, Payload, []byte, bool) {
	body, guard, ok := unseal(c)
	if !ok {
		return 0, Payload{}, nil, false
	}
	var p Payload
	tail, ok := decodePrefixInto(body, &p)
	if !ok {
		return 0, Payload{}, nil, false
	}
	for _, id := range p.Bag {
		if guardOf(id, body) == guard {
			return id, p, tail, true
		}
	}
	return 0, Payload{}, nil, false
}

// reencode rebuilds a certificate from a (possibly corrupted) prefix, the
// verbatim property tail, and a forged guard for the owner.
func reencode(p Payload, tail []byte, owner graph.ID) cert.Certificate {
	var w bitio.Writer
	encodePrefixTo(&w, p)
	for _, b := range tail {
		w.WriteBit(b)
	}
	seal(&w, owner)
	return w.Clone()
}

// pickDecodable returns a random vertex whose certificate parses as a
// tw-mso payload, or -1 when none does.
func pickDecodable(a cert.Assignment, rng *rand.Rand) (int, graph.ID, Payload, []byte) {
	if len(a) == 0 {
		return -1, 0, Payload{}, nil
	}
	start := rng.Intn(len(a))
	for i := 0; i < len(a); i++ {
		v := (start + i) % len(a)
		if owner, p, tail, ok := recoverOwner(a[v]); ok {
			return v, owner, p, tail
		}
	}
	return -1, 0, Payload{}, nil
}

// freshID returns an identifier guaranteed absent from the (sorted) bag.
func freshID(bag []graph.ID, rng *rand.Rand) graph.ID {
	return bag[len(bag)-1] + 1 + graph.ID(rng.Intn(4))
}

// CorruptBagID returns a tamper naming an owner outside one
// certificate's bag, with a correctly forged guard: the bag id is
// encoded as an index into the bag, and the tamper writes it at the
// bag's length, past every entry. The decoder refuses such an index, so
// the certificate is malformed and the corrupted vertex itself rejects.
func CorruptBagID() cert.Tamper {
	return cert.Tamper{
		Name: "corrupt-bag-id",
		Apply: func(a cert.Assignment, rng *rand.Rand) (cert.Assignment, bool) {
			out := a.Clone()
			v, owner, p, tail := pickDecodable(out, rng)
			if v == -1 {
				return out, false
			}
			p.BagID = 0 // no member: encodePrefixTo writes index len(p.Bag)
			out[v] = reencode(p, tail, owner)
			return out, true
		},
	}
}

// CorruptBagContents returns a tamper replacing the bag's canonical-owner
// entry in one certificate's encoded bag contents with a fresh, larger id
// and pointing the bag id at it, with a correctly forged guard. The
// certificate still decodes, so detection is local but not the
// decoder's: when the vertex was not the owner, its bag now claims an
// owner above the vertex's own id, which the verifier rejects; when it
// was, its bag no longer holds the vertex, and the certificate is
// malformed.
func CorruptBagContents() cert.Tamper {
	return cert.Tamper{
		Name: "corrupt-bag-contents",
		Apply: func(a cert.Assignment, rng *rand.Rand) (cert.Assignment, bool) {
			out := a.Clone()
			v, owner, p, tail := pickDecodable(out, rng)
			if v == -1 {
				return out, false
			}
			fresh := freshID(p.Bag, rng)
			bag := make([]graph.ID, 0, len(p.Bag))
			for _, id := range p.Bag {
				if id != p.BagID {
					bag = append(bag, id)
				}
			}
			p.Bag = append(bag, fresh) // fresh exceeds every member: still sorted
			p.BagID = fresh
			out[v] = reencode(p, tail, owner)
			return out, true
		},
	}
}

// BagTampers is the decomposition-aware adversary family sweeps add on
// top of cert.StandardTampers for tw-mso workloads.
func BagTampers() []cert.Tamper {
	return []cert.Tamper{CorruptBagID(), CorruptBagContents()}
}
