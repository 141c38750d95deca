package netsim

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cert"
	"repro/internal/graph"
)

// message is what travels over an edge during the legacy exchange round:
// the sender's identifier and certificate. Nothing else may cross the wire
// — in particular no adjacency information, matching the paper's model.
type message struct {
	id   graph.ID
	cert cert.Certificate
}

// RunGoroutinePerVertex is the original literal realization of the model:
// one goroutine per vertex, one buffered channel per directed edge, one
// certificate-exchange round. It is retained as the reference the sharded
// engine is differential-tested and benchmarked against — it spends O(n)
// goroutines and O(m) channels per run, which is exactly the cost profile
// the sharded engine exists to eliminate.
func RunGoroutinePerVertex(ctx context.Context, g *graph.Graph, s cert.Scheme, a cert.Assignment) (Report, error) {
	n := g.N()
	if len(a) != n {
		return Report{}, fmt.Errorf("netsim: assignment has %d certificates for %d vertices", len(a), n)
	}

	// inbox[v][i] receives the message from the i-th neighbour of v.
	inbox := make([][]chan message, n)
	for v := 0; v < n; v++ {
		inbox[v] = make([]chan message, g.Degree(v))
		for i := range inbox[v] {
			inbox[v][i] = make(chan message, 1)
		}
	}
	// channelTo[v][w] is the index of w in v's inbox, i.e. the channel on
	// which w must send to v.
	channelTo := make([]map[int]int, n)
	for v := 0; v < n; v++ {
		channelTo[v] = make(map[int]int, g.Degree(v))
		for i, w := range g.Neighbors(v) {
			channelTo[v][int(w)] = i
		}
	}

	type verdict struct {
		vertex int
		accept bool
	}
	verdicts := make(chan verdict, n)

	var wg sync.WaitGroup
	wg.Add(n)
	for v := 0; v < n; v++ {
		go func(v int) {
			defer wg.Done()
			// Round 1: send own (id, certificate) to every neighbour.
			for _, w := range g.Neighbors(v) {
				select {
				case inbox[w][channelTo[w][v]] <- message{id: g.IDOf(v), cert: a[v]}:
				case <-ctx.Done():
					return
				}
			}
			// Receive from every neighbour and assemble the radius-1 view.
			view := cert.View{ID: g.IDOf(v), Cert: a[v]}
			view.Neighbors = make([]cert.NeighborView, 0, g.Degree(v))
			for i := range inbox[v] {
				select {
				case m := <-inbox[v][i]:
					view.Neighbors = append(view.Neighbors, cert.NeighborView{ID: m.id, Cert: m.cert})
				case <-ctx.Done():
					return
				}
			}
			sort.Slice(view.Neighbors, func(i, j int) bool {
				return view.Neighbors[i].ID < view.Neighbors[j].ID
			})
			select {
			case verdicts <- verdict{vertex: v, accept: s.Verify(view)}:
			case <-ctx.Done():
			}
		}(v)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Channels are buffered, so the workers blocked on ctx will unwind;
		// wait for them so no goroutine leaks past this call.
		wg.Wait()
		return Report{}, fmt.Errorf("netsim: %w", ctx.Err())
	}
	close(verdicts)

	rep := Report{Accepted: true, Rounds: 1, Workers: n}
	for vd := range verdicts {
		if !vd.accept {
			rep.Accepted = false
			rep.Rejecters = append(rep.Rejecters, vd.vertex)
		}
	}
	sort.Ints(rep.Rejecters)
	return rep, nil
}
