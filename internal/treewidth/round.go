package treewidth

import (
	"math/bits"
	"sync"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
)

// recordBag is how many bag entries a round record holds inline (K): a
// round's record stride is 3 + min(T+1, recordBag) words whatever T is,
// so its memory does not grow with the width bound. It fits the bags of
// certify-large's T=6. A longer bag, possible only when T+1 exceeds it,
// goes to its slot's spill.
const recordBag = 8

// The words of a round record: the bag id, the depth, the bag's length
// (above lenShift) with its adjacency row (bit k for entry k) when the
// bag is inline, and from recBag on the inline bag.
const (
	recBagID = iota
	recDepth
	recMeta
	recBag
)

// lenShift places a record's bag length above its inline row bits.
const lenShift = 48

// parseRound is MSOScheme's parse of one verification round (see
// cert.Parser): one fixed-stride record per slot in a single slice, so
// the record of any vertex in a view — its header, its bag and its row
// — lies at an address computed from its slot, with no pointer to load
// first. Witness words live in a side array, and a bag longer than
// recordBag lives, followed by its row, in its slot's spill. A record
// with bag id 0 is malformed (see parse).
type parseRound struct {
	// t and setBits are the scheme parameters the round was parsed under.
	t, setBits int
	stride     int
	rec        []graph.ID
	words      []uint64     // witness words, read only when setBits > 0
	spill      [][]graph.ID // per slot, allocated and read only when T+1 > recordBag
}

// init sizes rd for n slots under width bound t and setBits witness bits,
// reusing rd's storage where it is large enough.
func (rd *parseRound) init(t, setBits, n int) {
	rd.t, rd.setBits = t, setBits
	// min(t, recordBag-1)+1 is min(T+1, recordBag) without overflowing
	// at the largest T.
	rd.stride = recBag + max(0, min(t, recordBag-1)+1)
	rd.rec = resize(rd.rec, n*rd.stride)
	if setBits > 0 {
		rd.words = resize(rd.words, n)
	}
	if t >= recordBag {
		rd.spill = resize(rd.spill, n)
	}
}

// resize returns s with length n, in s's storage when it is large enough.
// Its contents are unspecified: parse writes every record field a check
// reads.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// entry returns slot s's record, its bag and the words holding its row,
// read by rowBit. The bag is empty in a malformed record.
func (rd *parseRound) entry(s int32) (rec, bag, row []graph.ID) {
	i := int(s) * rd.stride
	rec = rd.rec[i : i+rd.stride : i+rd.stride]
	n := int(uint64(rec[recMeta]) >> lenShift)
	if n <= recordBag {
		return rec, rec[recBag : recBag+n], rec[recMeta : recMeta+1]
	}
	sp := rd.spill[s]
	return rec, sp[:n], sp[n:]
}

// rowBit reports bit k of a row returned by entry.
func rowBit(row []graph.ID, k int) bool { return uint64(row[k>>6])>>(k&63)&1 == 1 }

// word returns slot s's witness word.
func (rd *parseRound) word(s int32) uint64 {
	if rd.setBits == 0 {
		return 0
	}
	return rd.words[s]
}

// parse decodes certificate c of the vertex identified by owner into slot
// s. Well-formedness is decided here, once per certificate: one that does
// not decode, whose bag has more than T+1 entries or whose bag misses its
// owner is malformed, and its record gets bag id 0. Verify rejects on a
// malformed record at the owner and at every neighbour, exactly as each
// of them rejected on these conditions when it decoded the certificate
// itself.
func (rd *parseRound) parse(s int32, owner graph.ID, c cert.Certificate) {
	i := int(s) * rd.stride
	rec := rd.rec[i : i+rd.stride : i+rd.stride]
	if !rd.decode(rec, s, owner, c) {
		rec[recBagID], rec[recMeta] = 0, 0
	}
}

// decode is parse's decoder: it fills rec (and the slot's witness word
// and spill) and reports whether c is well-formed.
func (rd *parseRound) decode(rec []graph.ID, s int32, owner graph.ID, c cert.Certificate) bool {
	body, guard, ok := unseal(c)
	if !ok || guard != guardOf(owner, body) {
		return false
	}
	r := bitio.NewReader(body)
	size, width, ok := readHeader(r)
	// Every entry takes width bits and a row bit, so a bag whose
	// size·(width+1) exceeds the rest cannot decode; checking first
	// bounds the spill by the certificate's length.
	if !ok || size-1 > rd.t || size*(width+1) > r.Remaining() {
		return false
	}
	rowWords := (size + 63) / 64
	var bag []graph.ID
	if size <= recordBag {
		bag = rec[recBag:recBag]
	} else {
		bag = resize(rd.spill[s], size+rowWords)[:0]
	}
	if bag, ok = readBag(r, size, width, bag); !ok || !containsID(bag, owner) {
		return false
	}
	// readPlace resolves the bag id from an index into bag, so the bag
	// id of every well-formed record is a member of its bag: check relies
	// on it and does not look the id up again.
	bagID, depth, ok := readPlace(r, bag)
	if !ok {
		return false
	}
	// The row, entry k at bit k, read up to 64 entries per field.
	meta := uint64(size) << lenShift
	for k := 0; k < size; k += 64 {
		width := min(64, size-k)
		w, err := r.ReadUint(width)
		if err != nil {
			return false
		}
		w = bits.Reverse64(w) >> (64 - width)
		if size <= recordBag {
			meta |= w
		} else {
			bag = append(bag, graph.ID(w))
		}
	}
	if size > recordBag {
		rd.spill[s] = bag
	}
	if rd.setBits > 0 {
		state, err := r.ReadUint(rd.setBits)
		if err != nil {
			return false
		}
		rd.words[s] = state
	}
	if r.Remaining() != 0 {
		return false
	}
	rec[recBagID], rec[recDepth], rec[recMeta] = bagID, graph.ID(depth), graph.ID(meta)
	return true
}

// roundPool holds released rounds (see ReleaseRound) for the next
// NewRound of any MSOScheme: init resizes a pooled round in place to the
// new round's parameters, so a warm round allocates nothing that grows
// with n.
var roundPool sync.Pool

// NewRound implements cert.Parser: a round of n records of stride
// 3 + min(T+1, recordBag), a witness word per slot when the property has
// set variables, and a spill per slot only when T+1 > recordBag. It
// reuses a released round's storage where one is pooled.
func (s *MSOScheme) NewRound(n int) any {
	rd, ok := roundPool.Get().(*parseRound)
	if !ok {
		rd = &parseRound{}
	}
	rd.init(s.T, s.phi().NumSets(), n)
	return rd
}

// ReleaseRound implements cert.Parser: it pools a round NewRound returned
// for a later NewRound. A round holds no certificate, only what parse
// decoded from one, so the pool keeps no runner's data alive.
func (s *MSOScheme) ReleaseRound(round any) {
	if rd, ok := round.(*parseRound); ok {
		roundPool.Put(rd)
	}
}

// ParseRange implements cert.Parser: it parses the certificates of
// vertices [lo, hi) into their records once for the whole round, so a
// view reads every neighbour's record in place instead of decoding the
// certificate again in each of the deg+1 views it appears in. The pass
// allocates nothing but the spill of a bag longer than recordBag.
func (s *MSOScheme) ParseRange(g *graph.Graph, a cert.Assignment, lo, hi int, round any) {
	rd := round.(*parseRound)
	for v := lo; v < hi; v++ {
		rd.parse(int32(v), g.IDOf(v), a[v])
	}
}
