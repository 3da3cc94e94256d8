package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/alg"
)

// randomState builds a pseudo-random 2^n-amplitude float state (not
// normalized; the sampler renormalizes level by level).
func randomState(m *Manager[complex128], n int, seed int64) Edge[complex128] {
	r := rand.New(rand.NewSource(seed))
	amps := make([]complex128, 1<<uint(n))
	for i := range amps {
		amps[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m.FromVector(amps)
}

func TestSamplerDistribution(t *testing.T) {
	m := numManager(0)
	// Unbalanced two-qubit state: P(00)=0.64, P(11)=0.36.
	v := m.FromVector([]complex128{0.8, 0, 0, 0.6})
	s, err := m.NewSampler(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	counts := map[uint64]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		idx, err := s.Draw(rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	if counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("sampled impossible outcomes: %v", counts)
	}
	got := float64(counts[0]) / draws
	if math.Abs(got-0.64) > 0.02 {
		t.Fatalf("P(00) ≈ %v, want 0.64", got)
	}
}

func TestSamplerExactRing(t *testing.T) {
	// The sampler works over the exact ring too: Bell state in Q[ω].
	m := algManager(NormLeft)
	s := alg.QInvSqrt2
	bell := m.FromVector([]alg.Q{s, alg.QZero, alg.QZero, s})
	smp, err := m.NewSampler(bell, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		idx, err := smp.Draw(rng)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 0 && idx != 3 {
			t.Fatalf("Bell draw yielded impossible outcome %d", idx)
		}
	}
}

func TestSamplerStaleAfterPrune(t *testing.T) {
	// Regression: a Sampler built before a Prune holds pointers into swept
	// tables. Before the prune-generation check, Draw silently walked freed
	// structure; now both Draw and Mass must fail with ErrStaleSampler.
	m := numManager(0)
	v := randomState(m, 4, 9)
	s, err := m.NewSampler(v, 4)
	if err != nil {
		t.Fatal(err)
	}
	m.Prune(v) // state survives, but the sampler's generation is stale
	rng := rand.New(rand.NewSource(1))
	if _, err := s.Draw(rng); !errors.Is(err, ErrStaleSampler) {
		t.Fatalf("Draw after Prune: err = %v, want ErrStaleSampler", err)
	}
	// A fresh sampler over the pruned (still live) state works again.
	s2, err := m.NewSampler(v, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Draw(rng); err != nil {
		t.Fatalf("fresh sampler after Prune: %v", err)
	}
}

// benchState builds a dense-ish 12-qubit state with many live nodes.
func benchState(b *testing.B) (*Manager[complex128], Edge[complex128], int) {
	b.Helper()
	const n = 12
	m := numManager(0)
	v := randomState(m, n, 5)
	if m.IsZero(v) {
		b.Fatal("bench state collapsed")
	}
	return m, v, n
}

// BenchmarkSamplerDraw hoists the mass pass: one validating traversal at
// construction, then O(n) per draw.
func BenchmarkSamplerDraw(b *testing.B) {
	m, v, n := benchState(b)
	s, err := m.NewSampler(v, n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Draw(rng); err != nil {
			b.Fatal(err)
		}
	}
}
