package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/graph"
)

// streamChunk is the fault point at every v2 edge-chunk boundary on the
// decode side. Its corrupt action flips a bit inside the reader's
// buffered window, exercising the decoder's delta guards the way real
// line noise would.
var streamChunk = fault.NewPoint("wire.stream.chunk")

// Streaming graph format (v2). A single contiguous buffer is fine at
// thousands of vertices and hostile at a million, where both sides would
// hold the whole payload plus the graph in memory at once; v2 is
// byte-oriented and chunked so either side works from a bounded window
// over an io.Reader / io.Writer:
//
//	magic   "RGW2"            4 bytes
//	flags   byte              bit 0: custom identifiers
//	uvarint n                 number of vertices
//	uvarint m                 number of edges
//	n x uvarint id            only when the custom-ID flag is set
//	edge chunks:
//	  uvarint count           1..MaxStreamChunkEdges edges, 0 terminates
//	  count x (uvarint du, uvarint dv)
//
// All uvarints are standard LEB128 (encoding/binary). Edges are listed
// as index pairs u < v in strict ascending (u, v) order and delta-coded
// against that order: du = u - prevU, and dv = v - prev - 1 where prev
// is u when the u column advanced and the previous v otherwise. Deltas
// are non-negative by construction, so the decoder rebuilds a strictly
// increasing edge sequence or fails — out-of-order and duplicate edges
// are unrepresentable rather than checked after the fact.
const (
	// MaxStreamChunkEdges bounds one chunk's claimed edge count; the guard
	// keeps any single length prefix from forcing a large allocation.
	MaxStreamChunkEdges = 1 << 16

	// streamChunkEdges is the chunk size the encoder emits.
	streamChunkEdges = 1 << 12
)

var streamMagic = [4]byte{'R', 'G', 'W', '2'}

// StreamLimits caps what DecodeGraphStream will allocate on behalf of a
// header it has not yet corroborated with data. The zero value means the
// package-wide defaults (MaxGraphVertices and 32 edges per vertex).
type StreamLimits struct {
	MaxVertices int
	MaxEdges    int
}

func (l StreamLimits) withDefaults() StreamLimits {
	if l.MaxVertices <= 0 {
		l.MaxVertices = MaxGraphVertices
	}
	if l.MaxEdges <= 0 {
		l.MaxEdges = l.MaxVertices * 32
	}
	return l
}

// EncodeGraphStream writes g to w in the streaming v2 format. Memory use
// is one chunk buffer regardless of graph size: edges come straight off
// the sorted neighbour rows, never materialised as an edge list.
func EncodeGraphStream(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(streamMagic[:]); err != nil {
		return fmt.Errorf("wire: stream header: %w", err)
	}
	n := g.N()
	custom := !hasDefaultIDs(g)
	var flags byte
	if custom {
		flags |= 1
	}
	if err := bw.WriteByte(flags); err != nil {
		return fmt.Errorf("wire: stream header: %w", err)
	}
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(x uint64) error {
		_, err := bw.Write(scratch[:binary.PutUvarint(scratch[:], x)])
		return err
	}
	if err := writeUvarint(uint64(n)); err != nil {
		return fmt.Errorf("wire: stream header: %w", err)
	}
	if err := writeUvarint(uint64(g.M())); err != nil {
		return fmt.Errorf("wire: stream header: %w", err)
	}
	if custom {
		for v := 0; v < n; v++ {
			if err := writeUvarint(uint64(g.IDOf(v))); err != nil {
				return fmt.Errorf("wire: stream ids: %w", err)
			}
		}
	}
	prevU, prev := 0, 0
	inChunk := 0
	var chunk []byte
	for u := 0; u < n; u++ {
		for _, wv := range g.Neighbors(u) {
			v := int(wv)
			if v <= u {
				continue
			}
			if inChunk == 0 {
				chunk = chunk[:0]
			}
			du := u - prevU
			if du > 0 {
				prevU = u
				prev = u
			}
			chunk = binary.AppendUvarint(chunk, uint64(du))
			chunk = binary.AppendUvarint(chunk, uint64(v-prev-1))
			prev = v
			inChunk++
			if inChunk == streamChunkEdges {
				if err := flushChunk(bw, writeUvarint, inChunk, chunk); err != nil {
					return err
				}
				inChunk = 0
			}
		}
	}
	if inChunk > 0 {
		if err := flushChunk(bw, writeUvarint, inChunk, chunk); err != nil {
			return err
		}
	}
	if err := writeUvarint(0); err != nil {
		return fmt.Errorf("wire: stream terminator: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("wire: stream flush: %w", err)
	}
	return nil
}

func flushChunk(bw *bufio.Writer, writeUvarint func(uint64) error, count int, body []byte) error {
	if err := writeUvarint(uint64(count)); err != nil {
		return fmt.Errorf("wire: stream chunk header: %w", err)
	}
	if _, err := bw.Write(body); err != nil {
		return fmt.Errorf("wire: stream chunk: %w", err)
	}
	return nil
}

// DecodeGraphStream reads one streaming v2 graph from r. Decoding is
// incremental: edges accumulate chunk by chunk into a graph.Builder (its
// counting sort runs once at the end), the input is never buffered
// whole, and every allocation is bounded by lim before the claimed sizes
// have been paid for with actual payload bytes.
func DecodeGraphStream(r io.Reader, lim StreamLimits) (*graph.Graph, error) {
	lim = lim.withDefaults()
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("wire: stream magic: %w", err)
	}
	if magic != streamMagic {
		return nil, fmt.Errorf("wire: bad stream magic %q", magic[:])
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("wire: stream flags: %w", err)
	}
	if flags&^1 != 0 {
		return nil, fmt.Errorf("wire: unknown stream flags %#x", flags)
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("wire: stream vertex count: %w", err)
	}
	m64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("wire: stream edge count: %w", err)
	}
	if n64 > uint64(lim.MaxVertices) {
		return nil, fmt.Errorf("wire: stream claims %d vertices, limit %d", n64, lim.MaxVertices)
	}
	if m64 > uint64(lim.MaxEdges) {
		return nil, fmt.Errorf("wire: stream claims %d edges, limit %d", m64, lim.MaxEdges)
	}
	n, m := int(n64), int(m64)
	var b *graph.Builder
	if flags&1 != 0 {
		ids := make([]graph.ID, n)
		for v := range ids {
			id, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("wire: stream id %d: %w", v, err)
			}
			ids[v] = graph.ID(id)
		}
		b, err = graph.NewBuilderWithIDs(ids)
		if err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
	} else {
		b = graph.NewBuilder(n)
	}
	b.Grow(m)
	prevU, prev := 0, 0
	got := 0
	for {
		if fault.Armed() {
			if err := streamChunk.Inject(); err != nil {
				return nil, fmt.Errorf("wire: stream chunk: %w", err)
			}
			// Peek aliases the bufio buffer, so a corrupt rule flips a bit
			// the decode loop is about to consume.
			if w := br.Buffered(); w > 0 {
				if win, err := br.Peek(min(w, 64)); err == nil {
					streamChunk.InjectBytes(win)
				}
			}
		}
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("wire: stream chunk header: %w", err)
		}
		if count == 0 {
			break
		}
		if count > MaxStreamChunkEdges {
			return nil, fmt.Errorf("wire: stream chunk claims %d edges, limit %d", count, MaxStreamChunkEdges)
		}
		if got+int(count) > m {
			return nil, fmt.Errorf("wire: stream carries more than the declared %d edges", m)
		}
		for i := 0; i < int(count); i++ {
			du, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("wire: stream edge %d: %w", got, err)
			}
			dv, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("wire: stream edge %d: %w", got, err)
			}
			if du > uint64(n) || dv > uint64(n) {
				return nil, fmt.Errorf("wire: stream edge %d: delta out of range", got)
			}
			u := prevU + int(du)
			if du > 0 {
				prevU = u
				prev = u
			}
			v := prev + int(dv) + 1
			prev = v
			if u >= n || v >= n {
				return nil, fmt.Errorf("wire: stream edge %d (%d,%d) out of range [0,%d)", got, u, v, n)
			}
			if err := b.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("wire: %w", err)
			}
			got++
		}
	}
	if got != m {
		return nil, fmt.Errorf("wire: stream carries %d edges, header declared %d", got, m)
	}
	g, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return g, nil
}
