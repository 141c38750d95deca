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
// inside either pass. Verify also rejects the vertex identified rejectID,
// if any.
type parsingScheme struct {
	onParse  func(lo, hi int)
	onVerify func(v cert.View)
	rejectID graph.ID
	verified atomic.Int64

	// newRounds and released count the rounds handed out and taken back;
	// running counts the ParseRange and Verify calls under way, and
	// releasedEarly the releases that came while one was.
	newRounds, released, running, releasedEarly atomic.Int64
}

func (s *parsingScheme) Name() string                       { return "parsing-probe" }
func (s *parsingScheme) Holds(g *graph.Graph) (bool, error) { return true, nil }
func (s *parsingScheme) Prove(g *graph.Graph) (cert.Assignment, error) {
	return make(cert.Assignment, g.N()), nil
}

func (s *parsingScheme) NewRound(n int) any {
	s.newRounds.Add(1)
	return make([]graph.ID, n)
}

func (s *parsingScheme) ReleaseRound(round any) {
	if _, ok := round.([]graph.ID); !ok {
		panic("ReleaseRound: not a round of this scheme")
	}
	if s.running.Load() != 0 {
		s.releasedEarly.Add(1)
	}
	s.released.Add(1)
}

func (s *parsingScheme) ParseRange(g *graph.Graph, a cert.Assignment, lo, hi int, round any) {
	s.running.Add(1)
	defer s.running.Add(-1)
	if s.onParse != nil {
		s.onParse(lo, hi)
	}
	ids := round.([]graph.ID)
	for v := lo; v < hi; v++ {
		ids[v] = g.IDOf(v)
	}
}

func (s *parsingScheme) Verify(v cert.View) bool {
	s.running.Add(1)
	defer s.running.Add(-1)
	s.verified.Add(1)
	if s.onVerify != nil {
		s.onVerify(v)
	}
	ids, ok := v.Round.([]graph.ID)
	if !ok || ids[v.Slot] != v.ID || v.ID == s.rejectID {
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

// Every way a round can end hands its round back to the scheme exactly
// once, on both runners: accepted, rejected, cancelled in either pass, a
// failed or panicking barrier and a contained panic in either pass. The
// release comes after the last ParseRange and Verify have returned, so
// no worker still reads the round.
func TestRunReleasesRoundOnce(t *testing.T) {
	g := graphgen.Path(8 * fault.CheckStride)
	boom := func() { panic("boom") }
	plain := func(context.CancelFunc) *parsingScheme { return &parsingScheme{} }
	cases := map[string]struct {
		scheme     func(cancel context.CancelFunc) *parsingScheme
		plan       string // fault plan armed around the netsim run
		sequential bool   // whether the sequential referee takes the case too
		ok, accept bool   // whether the round completes, and its verdict
	}{
		"accept": {scheme: plain, sequential: true, ok: true, accept: true},
		"reject": {scheme: func(context.CancelFunc) *parsingScheme { return &parsingScheme{rejectID: 5} },
			sequential: true, ok: true},
		"cancel-parse": {scheme: func(cancel context.CancelFunc) *parsingScheme {
			return &parsingScheme{onParse: func(lo, hi int) { cancel() }}
		}, sequential: true},
		"cancel-verify": {scheme: func(cancel context.CancelFunc) *parsingScheme {
			return &parsingScheme{onVerify: func(cert.View) { cancel() }}
		}, sequential: true},
		"barrier-error": {scheme: plain, plan: "seed=1;netsim.round.barrier:error#1"},
		"barrier-panic": {scheme: plain, plan: "seed=1;netsim.round.barrier:panic#1"},
		"panic-parse": {scheme: func(context.CancelFunc) *parsingScheme {
			return &parsingScheme{onParse: func(lo, hi int) {
				if lo == 0 {
					boom()
				}
			}}
		}, sequential: true},
		"panic-verify": {scheme: func(context.CancelFunc) *parsingScheme {
			return &parsingScheme{onVerify: func(v cert.View) {
				if v.ID == 7 {
					boom()
				}
			}}
		}, sequential: true},
	}
	released := func(t *testing.T, s *parsingScheme) {
		t.Helper()
		if n, r := s.newRounds.Load(), s.released.Load(); n != 1 || r != 1 {
			t.Fatalf("%d rounds created, %d released; want 1 and 1", n, r)
		}
		if s.releasedEarly.Load() != 0 {
			t.Fatal("round released while a parse or Verify was still running")
		}
	}
	for name, c := range cases {
		t.Run(name+"/netsim", func(t *testing.T) {
			if c.plan != "" {
				plan, err := fault.ParsePlan(c.plan)
				if err != nil {
					t.Fatal(err)
				}
				if err := fault.Arm(plan); err != nil {
					t.Fatal(err)
				}
				defer fault.Disarm()
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s := c.scheme(cancel)
			rep, err := (&Engine{Workers: 3, Obs: obs.NewRegistry()}).Run(ctx, g, s, make(cert.Assignment, g.N()))
			if (err == nil) != c.ok || (c.ok && rep.Accepted != c.accept) {
				t.Fatalf("err = %v, accepted %v; want success %v, accepted %v", err, rep.Accepted, c.ok, c.accept)
			}
			released(t, s)
		})
		if !c.sequential {
			continue
		}
		t.Run(name+"/sequential", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s := c.scheme(cancel)
			func() {
				defer func() { _ = recover() }() // the referee does not contain panics
				res, err := cert.RunSequentialCtx(ctx, g, s, make(cert.Assignment, g.N()))
				if (err == nil) != c.ok || (c.ok && res.Accepted != c.accept) {
					t.Errorf("err = %v, accepted %v; want success %v, accepted %v", err, res.Accepted, c.ok, c.accept)
				}
			}()
			released(t, s)
		})
	}
}
