package netsim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/obs"
)

// parsingScheme is a cert.Parser probe: its round holds the vertices' own
// identifiers, one per slot, Verify accepts a vertex whose view's slots
// address exactly those entries, and the hooks let a test cancel or panic
// inside either pass.
type parsingScheme struct {
	onParse  func(lo, hi int)
	onVerify func(v cert.View)
	verified atomic.Int64
}

func (s *parsingScheme) Name() string                       { return "parsing-probe" }
func (s *parsingScheme) Holds(g *graph.Graph) (bool, error) { return true, nil }
func (s *parsingScheme) Prove(g *graph.Graph) (cert.Assignment, error) {
	return make(cert.Assignment, g.N()), nil
}

func (s *parsingScheme) NewRound(n int) any { return make([]graph.ID, n) }

func (s *parsingScheme) ParseRange(g *graph.Graph, a cert.Assignment, lo, hi int, round any) {
	if s.onParse != nil {
		s.onParse(lo, hi)
	}
	ids := round.([]graph.ID)
	for v := lo; v < hi; v++ {
		ids[v] = g.IDOf(v)
	}
}

func (s *parsingScheme) Verify(v cert.View) bool {
	s.verified.Add(1)
	if s.onVerify != nil {
		s.onVerify(v)
	}
	ids, ok := v.Round.([]graph.ID)
	if !ok || ids[v.Slot] != v.ID {
		return false
	}
	for _, nb := range v.Neighbors {
		if ids[nb.Slot] != nb.ID {
			return false
		}
	}
	return true
}

// Both runners hand every view the round, with slots addressing its
// vertex's and its neighbours' parse.
func TestParsedEntriesReachEveryView(t *testing.T) {
	g := graphgen.Grid(40, 40)
	s := &parsingScheme{}
	seq, err := cert.RunSequential(g, s, make(cert.Assignment, g.N()))
	if err != nil || !seq.Accepted {
		t.Fatalf("sequential: %v %v", err, seq.Rejecters)
	}
	for _, workers := range []int{1, 2, 7} {
		rep, err := (&Engine{Workers: workers}).Run(context.Background(), g, s, make(cert.Assignment, g.N()))
		if err != nil || !rep.Accepted {
			t.Fatalf("workers %d: %v %v", workers, err, rep.Rejecters)
		}
	}
}

// A context cancelled while the round is still parsing stops both
// runners before any vertex verifies, with the verify phase's
// cancellation error, and leaves no worker behind.
func TestParsePassCancellation(t *testing.T) {
	// Several parse chunks per shard, so every shard probes the context
	// again after the first chunk cancelled it.
	g := graphgen.Path(8 * fault.CheckStride)
	runners := map[string]func(ctx context.Context, s cert.Scheme) error{
		"sequential": func(ctx context.Context, s cert.Scheme) error {
			_, err := cert.RunSequentialCtx(ctx, g, s, make(cert.Assignment, g.N()))
			return err
		},
		"netsim": func(ctx context.Context, s cert.Scheme) error {
			_, err := (&Engine{Workers: 4}).Run(ctx, g, s, make(cert.Assignment, g.N()))
			return err
		},
	}
	for name, run := range runners {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s := &parsingScheme{onParse: func(lo, hi int) { cancel() }}
			err := run(ctx, s)
			var ce *fault.CancelledError
			if !errors.As(err, &ce) || ce.Phase != "verify" {
				t.Fatalf("err = %v, want a CancelledError for phase verify", err)
			}
			if n := s.verified.Load(); n != 0 {
				t.Fatalf("%d vertices verified after the parse pass was cancelled", n)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// A panicking parser is contained exactly like a panicking Verify: the
// round fails with an error naming the shard, the process survives, and
// netsim_shard_panics_total counts the one panicking shard.
func TestParserPanicContained(t *testing.T) {
	g := graphgen.Path(300)
	boom := func() { panic("boom") }
	cases := map[string]*parsingScheme{
		"parse": {onParse: func(lo, hi int) {
			if lo == 0 {
				boom()
			}
		}},
		"verify": {onVerify: func(v cert.View) {
			if v.ID == 1 {
				boom()
			}
		}},
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			e := &Engine{Workers: 3, Obs: reg}
			_, err := e.Run(context.Background(), g, s, make(cert.Assignment, g.N()))
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("err = %v, want a contained shard panic", err)
			}
			if got := reg.Counter(MetricShardPanics, "").Value(); got != 1 {
				t.Fatalf("%s = %d, want 1", MetricShardPanics, got)
			}
			// The engine stays usable after the contained panic.
			rep, err := e.Run(context.Background(), g, &parsingScheme{}, make(cert.Assignment, g.N()))
			if err != nil || !rep.Accepted {
				t.Fatalf("follow-up round: %v %v", err, rep.Rejecters)
			}
		})
	}
}
