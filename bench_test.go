package compactcert

// One benchmark per experiment E1–E10 of cmd/experiments, running the
// same internal/experiments code that renders its tables, plus ablation
// benches: the sequential referee against the distributed simulator, the
// exact treedepth solver on both gadget polarities, and the provers of
// the three headline schemes. Run:
//
//	go test -bench=. -benchmem
import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/experiments"
	"repro/internal/graphgen"
	"repro/internal/netsim"
	"repro/internal/spanning"
	"repro/internal/treedepth"
)

func benchTable(b *testing.B, run func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1TreeMSO(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.E1TreeMSO(1) })
}

func BenchmarkE1TypeDiscovery(b *testing.B) {
	benchTable(b, experiments.E1TypeDiscovery)
}

func BenchmarkE2FPFAutomorphism(b *testing.B) {
	benchTable(b, experiments.E2FPF)
}

func BenchmarkE3TreedepthCert(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.E3Treedepth(1) })
}

func BenchmarkE4TreedepthLB(b *testing.B) {
	benchTable(b, experiments.E4TreedepthLB)
}

func BenchmarkE5KernelMSO(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.E5KernelMSO(1) })
}

func BenchmarkE6KernelSize(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.E6KernelSize(1) })
}

func BenchmarkE7KernelEquivalence(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.E7KernelEquivalence(1) })
}

func BenchmarkE8SmallFragments(b *testing.B) {
	benchTable(b, experiments.E8SmallFragments)
}

func BenchmarkE9MinorFree(b *testing.B) {
	benchTable(b, experiments.E9MinorFree)
}

func BenchmarkE10Substrates(b *testing.B) {
	benchTable(b, experiments.E10Substrates)
}

// Ablation: the sequential referee vs the goroutine-per-node simulator
// on the same scheme and instance (same verdicts, different cost).
func BenchmarkAblationRefereeSequential(b *testing.B) {
	g := graphgen.Cycle(512)
	s := spanning.Tree{}
	a, err := s.Prove(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cert.RunSequential(g, s, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRefereeDistributed(b *testing.B) {
	g := graphgen.Cycle(512)
	s := spanning.Tree{}
	a, err := s.Prove(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Run(context.Background(), g, s, a); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: exact treedepth with and without the degree-ordered
// branch-and-bound candidate ordering is not separable post-hoc, but the
// solver cost itself on the two Lemma 7.3 gadget polarities shows the
// pruning at work (the unequal case explores a larger space).
func BenchmarkAblationExactTreedepthEqualGadget(b *testing.B) {
	gd, err := graphgen.TreedepthGadget(2, []int{0, 1}, []int{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := treedepth.Exact(gd.G); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationExactTreedepthUnequalGadget(b *testing.B) {
	gd, err := graphgen.TreedepthGadget(2, []int{0, 1}, []int{1, 0})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := treedepth.Exact(gd.G); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: prover cost of the three headline schemes on comparable
// instances (constant vs logarithmic vs kernel certificates).
func BenchmarkProverTreeMSO(b *testing.B) {
	s, err := TreeMSOScheme("perfect-matching")
	if err != nil {
		b.Fatal(err)
	}
	g := Path(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Prove(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProverTreedepth(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, provider := RandomBoundedTreedepth(1024, 4, 0.3, rng)
	s := TreedepthSchemeWithModel(4, provider)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Prove(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProverKernelMSO(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, provider := RandomBoundedTreedepth(512, 3, 0.3, rng)
	s, err := KernelMSOSchemeWithModel(3, "forall x. exists y. x ~ y", provider)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Prove(g); err != nil {
			b.Fatal(err)
		}
	}
}
