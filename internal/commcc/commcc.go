// Package commcc implements the two-party nondeterministic communication
// complexity machinery of Section 7: the EQUALITY problem and its Ω(ℓ)
// certificate lower bound (Theorem 7.1, made executable as a fooling-set
// break finder), and the framework of §7.1 reducing local certification
// to communication protocols (Proposition 7.2).
package commcc

import (
	"fmt"
	"math/rand"

	"repro/internal/cert"
	"repro/internal/graphgen"
)

// Protocol is a two-party nondeterministic protocol in the paper's
// simplified setting: a single certificate is shown to both players, each
// accepts or rejects privately, and the pair accepts when both do.
type Protocol interface {
	Name() string
	// CertBits is the certificate length in bits.
	CertBits() int
	Alice(s, certificate []byte) bool
	Bob(s, certificate []byte) bool
}

// Accepts reports nondeterministic acceptance: some certificate convinces
// both players. Exponential in CertBits; intended for small protocols.
func Accepts(p Protocol, sA, sB []byte) bool {
	m := p.CertBits()
	certificate := make([]byte, m)
	var try func(i int) bool
	try = func(i int) bool {
		if i == m {
			return p.Alice(sA, certificate) && p.Bob(sB, certificate)
		}
		certificate[i] = 0
		if try(i + 1) {
			return true
		}
		certificate[i] = 1
		if try(i + 1) {
			return true
		}
		certificate[i] = 0
		return false
	}
	return try(0)
}

// DecidesEquality exhaustively checks that the protocol accepts exactly
// the equal pairs of length-l strings. Cost O(4^l * 2^CertBits); keep l
// tiny.
func DecidesEquality(p Protocol, l int) error {
	strs := allStrings(l)
	for _, a := range strs {
		for _, b := range strs {
			got := Accepts(p, a, b)
			want := equalStrings(a, b)
			if got != want {
				return fmt.Errorf("commcc: %s on (%v,%v): accepts=%v, want %v", p.Name(), a, b, got, want)
			}
		}
	}
	return nil
}

// HonestEquality is the optimal protocol: the certificate is the claimed
// common string; each player compares it with their input. Uses exactly
// l bits, matching Theorem 7.1's lower bound.
type HonestEquality struct{ L int }

// Name implements Protocol.
func (p HonestEquality) Name() string { return fmt.Sprintf("honest-equality(%d)", p.L) }

// CertBits implements Protocol.
func (p HonestEquality) CertBits() int { return p.L }

// Alice implements Protocol.
func (p HonestEquality) Alice(s, c []byte) bool { return equalStrings(s, c) }

// Bob implements Protocol.
func (p HonestEquality) Bob(s, c []byte) bool { return equalStrings(s, c) }

// TruncatedEquality cheats with M < L bits: the certificate is the first
// M bits of the claimed string. It is complete but unsound, and
// FindFoolingBreak exposes it.
type TruncatedEquality struct{ L, M int }

// Name implements Protocol.
func (p TruncatedEquality) Name() string { return fmt.Sprintf("truncated-equality(%d->%d)", p.L, p.M) }

// CertBits implements Protocol.
func (p TruncatedEquality) CertBits() int { return p.M }

// Alice implements Protocol.
func (p TruncatedEquality) Alice(s, c []byte) bool { return equalStrings(s[:p.M], c) }

// Bob implements Protocol.
func (p TruncatedEquality) Bob(s, c []byte) bool { return equalStrings(s[:p.M], c) }

// FoolingBreak is a witness that a protocol fails to decide EQUALITY: an
// unequal pair it accepts.
type FoolingBreak struct {
	X, Y        []byte
	Certificate []byte
}

// FindFoolingBreak runs the Theorem 7.1 argument constructively: every
// diagonal pair (x, x) needs an accepting certificate; with fewer than
// 2^l certificates two diagonals share one, and the shared certificate
// also convinces the crossed (unequal) pair. It returns a break for any
// complete protocol with CertBits < l, and reports failure (no break
// found) for sound protocols.
func FindFoolingBreak(p Protocol, l int) (*FoolingBreak, error) {
	owner := map[string][]byte{} // certificate -> diagonal string that used it
	for _, x := range allStrings(l) {
		found := false
		m := p.CertBits()
		certificate := make([]byte, m)
		var try func(i int) *FoolingBreak
		try = func(i int) *FoolingBreak {
			if i == m {
				if !(p.Alice(x, certificate) && p.Bob(x, certificate)) {
					return nil
				}
				found = true
				key := string(certificate)
				if prev, ok := owner[key]; ok && !equalStrings(prev, x) {
					// The cross pair (prev, x) is accepted by this very
					// certificate if the protocol is rectangle-shaped; verify.
					if p.Alice(prev, certificate) && p.Bob(x, certificate) {
						return &FoolingBreak{X: prev, Y: x, Certificate: append([]byte(nil), certificate...)}
					}
					return nil
				}
				owner[key] = append([]byte(nil), x...)
				return nil
			}
			for _, b := range []byte{0, 1} {
				certificate[i] = b
				if br := try(i + 1); br != nil {
					return br
				}
			}
			return nil
		}
		if br := try(0); br != nil {
			return br, nil
		}
		if !found {
			return nil, fmt.Errorf("commcc: %s rejects the diagonal pair (%v,%v) — incomplete protocol", p.Name(), x, x)
		}
	}
	return nil, nil
}

// GadgetBuilder constructs the §7.1 instance G(s_A, s_B) for a pair of
// strings. The layout (vertex IDs, E_P and the partition) must not depend
// on the strings — only Alice's V_A-internal edges depend on s_A and
// Bob's V_B-internal edges on s_B — which is what lets each player build
// their half alone.
type GadgetBuilder func(sA, sB []byte) (*graphgen.Gadget, error)

// Reduction packages a certification scheme with a gadget family,
// yielding the protocol of Proposition 7.2 / Appendix E.1.
type Reduction struct {
	Scheme cert.Scheme
	Build  GadgetBuilder
	L      int // string length
}

// AliceAccepts simulates the verifier on Alice's half V_A ∪ V_α. Alice
// knows s_A, the fixed layout, and the full certificate assignment; the
// vertices she simulates have no neighbours inside V_B, and the radius-1
// views never reveal edges among neighbours, so the missing V_B edges
// cannot influence her verdict.
func (r *Reduction) AliceAccepts(sA []byte, a cert.Assignment) (bool, error) {
	dummy := make([]byte, r.L)
	gd, err := r.Build(sA, dummy)
	if err != nil {
		return false, err
	}
	return r.sideAccepts(gd, append(append([]int(nil), gd.VA...), gd.VAlpha...), a)
}

// BobAccepts is the symmetric simulation on V_B ∪ V_β.
func (r *Reduction) BobAccepts(sB []byte, a cert.Assignment) (bool, error) {
	dummy := make([]byte, r.L)
	gd, err := r.Build(dummy, sB)
	if err != nil {
		return false, err
	}
	return r.sideAccepts(gd, append(append([]int(nil), gd.VB...), gd.VBeta...), a)
}

func (r *Reduction) sideAccepts(gd *graphgen.Gadget, side []int, a cert.Assignment) (bool, error) {
	if len(a) != gd.G.N() {
		return false, fmt.Errorf("commcc: assignment has %d certificates for %d vertices", len(a), gd.G.N())
	}
	var buf []cert.NeighborView
	for _, v := range side {
		view := cert.AssembleView(gd.G, a, nil, v, buf)
		buf = view.Neighbors
		if !r.Scheme.Verify(view) {
			return false, nil
		}
	}
	return true, nil
}

// CheckEquality validates the reduction end to end:
//
//   - completeness: for sampled equal pairs, the honest certificate
//     assignment (from the scheme's prover on the true combined graph)
//     convinces both players;
//   - soundness (sampled): for sampled unequal pairs, none of `probes`
//     adversarial assignments (random bits, plus tampered honest
//     assignments from a neighbouring yes-instance) convinces both
//     players simultaneously.
//
// A full nondeterministic rejection proof would quantify over all
// assignments; that is exactly the soundness of the local scheme, probed
// separately — this check wires the two sides together.
func (r *Reduction) CheckEquality(pairs, probes int, rng *rand.Rand) error {
	for trial := 0; trial < pairs; trial++ {
		s := randomString(r.L, rng)
		gd, err := r.Build(s, s)
		if err != nil {
			return err
		}
		honest, err := r.Scheme.Prove(gd.G)
		if err != nil {
			return fmt.Errorf("commcc: equal pair has no certificate: %w", err)
		}
		okA, err := r.AliceAccepts(s, honest)
		if err != nil {
			return err
		}
		okB, err := r.BobAccepts(s, honest)
		if err != nil {
			return err
		}
		if !okA || !okB {
			return fmt.Errorf("commcc: honest certificate rejected on equal pair (alice=%v bob=%v)", okA, okB)
		}

		// Unequal pair: perturb s.
		t := append([]byte(nil), s...)
		t[rng.Intn(len(t))] ^= 1
		gdNo, err := r.Build(s, t)
		if err != nil {
			return err
		}
		holds, err := r.Scheme.Holds(gdNo.G)
		if err != nil {
			return err
		}
		if holds {
			return fmt.Errorf("commcc: unequal pair still satisfies the property — gadget family broken")
		}
		maxBits := honest.MaxBits()
		for probe := 0; probe < probes; probe++ {
			var a cert.Assignment
			if probe%2 == 0 {
				a = cert.RandomAssignment(gdNo.G.N(), maxBits, rng)
			} else {
				a, _ = cert.FlipBits(1+rng.Intn(4)).Apply(honest, rng)
			}
			okA, err := r.AliceAccepts(s, a)
			if err != nil {
				return err
			}
			if !okA {
				continue
			}
			okB, err := r.BobAccepts(t, a)
			if err != nil {
				return err
			}
			if okB {
				return fmt.Errorf("commcc: adversarial assignment accepted on unequal pair (probe %d)", probe)
			}
		}
	}
	return nil
}

// ImpliedLowerBound states Proposition 7.2 numerically: a certification
// of the gadget property with q-bit certificates yields an EQUALITY
// protocol with r*q certificate bits, so q >= l / r (up to the constant
// from Theorem 7.1).
func ImpliedLowerBound(l, middleSize int) float64 {
	if middleSize <= 0 {
		return 0
	}
	return float64(l) / float64(middleSize)
}

func allStrings(l int) [][]byte {
	out := make([][]byte, 0, 1<<uint(l))
	for v := 0; v < 1<<uint(l); v++ {
		s := make([]byte, l)
		for i := 0; i < l; i++ {
			s[i] = byte(v >> uint(l-1-i) & 1)
		}
		out = append(out, s)
	}
	return out
}

func equalStrings(a, b []byte) bool {
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

func randomString(l int, rng *rand.Rand) []byte {
	s := make([]byte, l)
	for i := range s {
		s[i] = byte(rng.Intn(2))
	}
	return s
}
