package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alg"
	"repro/internal/num"
)

func algManager(norm NormScheme) *Manager[alg.Q] {
	return NewManager[alg.Q](alg.Ring{}, norm)
}

func numManager(eps float64) *Manager[complex128] {
	return NewManager[complex128](num.NewRing(eps), NormLeft)
}

// localH builds an n-qubit Hadamard LocalGate at the given target level.
func localH[T any](m *Manager[T], target int, ctrls []LocalControl) *LocalGate[T] {
	inv, _ := m.R.FromComplex(complex(1/1.4142135623730951, 0))
	if _, isQ := any(m.R).(alg.Ring); isQ {
		inv = m.R.FromQ(alg.QInvSqrt2)
	}
	base := [2][2]T{{inv, inv}, {inv, m.R.Mul(m.R.FromQ(alg.QMinusOne), inv)}}
	return m.PrepareLocal(base, target, ctrls)
}

// buildWalk drives a deterministic pseudo-random sequence of Add and
// ApplyLocal calls over a 12-qubit state and returns the final edge.
func buildWalk[T any](m *Manager[T], seed int64) Edge[T] {
	const n = 12
	r := rand.New(rand.NewSource(seed))
	state := m.BasisState(n, uint64(r.Intn(1<<n)))
	for i := 0; i < 60; i++ {
		target := 1 + r.Intn(n)
		var ctrls []LocalControl
		if r.Intn(2) == 0 {
			c := 1 + r.Intn(n)
			if c != target {
				ctrls = []LocalControl{{Level: c, Neg: r.Intn(2) == 0}}
			}
		}
		state = m.ApplyLocal(localH(m, target, ctrls), state)
		if r.Intn(4) == 0 {
			other := m.BasisState(n, uint64(r.Intn(1<<n)))
			state = m.Add(state, other)
		}
	}
	return state
}

func randQVals(r *rand.Rand, n int) []alg.Q {
	out := make([]alg.Q, n)
	for i := range out {
		if r.Intn(4) == 0 {
			out[i] = alg.QZero
			continue
		}
		out[i] = alg.NewQ(
			r.Int63n(9)-4, r.Int63n(9)-4, r.Int63n(9)-4, r.Int63n(9)-4,
			r.Intn(5)-2, 1)
	}
	return out
}

// TestCanonicity: the same vector built along different construction orders
// (and scaled arbitrarily before normalization) yields the identical node.
func TestCanonicity(t *testing.T) {
	m := algManager(NormLeft)
	r := rand.New(rand.NewSource(50))
	for trial := 0; trial < 50; trial++ {
		amps := randQVals(r, 8)
		v1 := m.FromVector(amps)
		// Build the scaled vector 3·amps and check the node is shared.
		scaled := make([]alg.Q, len(amps))
		three := alg.NewQ(0, 0, 0, 3, 0, 1)
		for i, a := range amps {
			scaled[i] = a.Mul(three)
		}
		v2 := m.FromVector(scaled)
		if m.IsZero(v1) {
			if !m.IsZero(v2) {
				t.Fatalf("zero/nonzero mismatch")
			}
			continue
		}
		if v1.N != v2.N {
			t.Fatalf("scaled vector does not share the node: trial %d", trial)
		}
		if !m.R.Equal(v2.W, v1.W.Mul(three)) {
			t.Fatalf("root weights not proportional by 3")
		}
	}
}

// TestFig1HKronI reproduces the paper's Fig. 1: the QMDD of U = H ⊗ I₂ has a
// single node per level (2 nodes total) and root weight 1/√2.
func TestFig1HKronI(t *testing.T) {
	m := algManager(NormLeft)
	s := alg.QInvSqrt2
	h := m.FromMatrix([][]alg.Q{
		{s, s},
		{s, s.Neg()},
	})
	id := m.Identity(1)
	u := m.Kron(h, id)
	if got := u.NodeCount(); got != 2 {
		t.Fatalf("H ⊗ I₂ has %d nodes, want 2", got)
	}
	if !m.R.Equal(u.W, s) {
		t.Fatalf("root weight = %v, want 1/√2", u.W)
	}
	// Entry check from Example 3: entry (row=2, col=0) is −1/√2... the
	// highlighted entry of the bottom-left sub-matrix is 1/√2 at (2,0) and
	// the bottom-right carries the −1 factor. Verify the whole matrix.
	want := [][]complex128{
		{1, 0, 1, 0},
		{0, 1, 0, 1},
		{1, 0, -1, 0},
		{0, 1, 0, -1},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			got := m.R.Complex128(m.Entry(u, 2, uint64(i), uint64(j)))
			w := want[i][j] / complex(math.Sqrt2, 0)
			if cmplx.Abs(got-w) > 1e-12 {
				t.Fatalf("entry (%d,%d) = %v, want %v", i, j, got, w)
			}
		}
	}
}

// TestIdentityMul: I·v = v and I·I = I with identical roots (O(1) check).
func TestIdentityMul(t *testing.T) {
	for _, norm := range []NormScheme{NormLeft, NormMax, NormGCD} {
		m := algManager(norm)
		id := m.Identity(3)
		if !m.RootsEqual(m.Mul(id, id), id) {
			t.Fatalf("[%v] I·I ≠ I", norm)
		}
		r := rand.New(rand.NewSource(51))
		v := m.FromVector(randQVals(r, 8))
		if !m.RootsEqual(m.Mul(id, v), v) {
			t.Fatalf("[%v] I·v ≠ v", norm)
		}
	}
}

// denseMul is the reference O(8^n) matrix multiply for cross-validation.
func denseMul(a, b [][]alg.Q) [][]alg.Q {
	n := len(a)
	out := make([][]alg.Q, n)
	for i := range out {
		out[i] = make([]alg.Q, n)
		for j := range out[i] {
			s := alg.QZero
			for k := 0; k < n; k++ {
				s = s.Add(a[i][k].Mul(b[k][j]))
			}
			out[i][j] = s
		}
	}
	return out
}

func denseMatVec(a [][]alg.Q, v []alg.Q) []alg.Q {
	out := make([]alg.Q, len(v))
	for i := range out {
		s := alg.QZero
		for k := range v {
			s = s.Add(a[i][k].Mul(v[k]))
		}
		out[i] = s
	}
	return out
}

func randQMatrix(r *rand.Rand, dim int) [][]alg.Q {
	rows := make([][]alg.Q, dim)
	for i := range rows {
		rows[i] = randQVals(r, dim)
	}
	return rows
}

func TestMulMatchesDense(t *testing.T) {
	for _, norm := range []NormScheme{NormLeft, NormMax, NormGCD} {
		m := algManager(norm)
		r := rand.New(rand.NewSource(52))
		for trial := 0; trial < 10; trial++ {
			a := randQMatrix(r, 8)
			b := randQMatrix(r, 8)
			da := m.FromMatrix(a)
			db := m.FromMatrix(b)
			got := m.ToMatrix(m.Mul(da, db), 3)
			want := denseMul(a, b)
			for i := range want {
				for j := range want[i] {
					if !got[i][j].Equal(want[i][j]) {
						t.Fatalf("[%v] (AB)[%d][%d] = %v, want %v", norm, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

func TestMatVecMatchesDense(t *testing.T) {
	m := algManager(NormLeft)
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		a := randQMatrix(r, 8)
		v := randQVals(r, 8)
		got := m.ToVector(m.Mul(m.FromMatrix(a), m.FromVector(v)), 3)
		want := denseMatVec(a, v)
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("(Av)[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestAddMatchesDense(t *testing.T) {
	m := algManager(NormLeft)
	r := rand.New(rand.NewSource(54))
	for trial := 0; trial < 10; trial++ {
		x := randQVals(r, 16)
		y := randQVals(r, 16)
		got := m.ToVector(m.Add(m.FromVector(x), m.FromVector(y)), 4)
		for i := range x {
			if !got[i].Equal(x[i].Add(y[i])) {
				t.Fatalf("(x+y)[%d] mismatch", i)
			}
		}
	}
}

func TestKronMatchesDense(t *testing.T) {
	m := algManager(NormLeft)
	r := rand.New(rand.NewSource(55))
	a := randQMatrix(r, 4)
	b := randQMatrix(r, 2)
	got := m.ToMatrix(m.Kron(m.FromMatrix(a), m.FromMatrix(b)), 3)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := a[i/2][j/2].Mul(b[i%2][j%2])
			if !got[i][j].Equal(want) {
				t.Fatalf("(A⊗B)[%d][%d] = %v, want %v", i, j, got[i][j], want)
			}
		}
	}
}

func TestAdjointMatchesDense(t *testing.T) {
	m := algManager(NormLeft)
	r := rand.New(rand.NewSource(56))
	a := randQMatrix(r, 8)
	got := m.ToMatrix(m.Adjoint(m.FromMatrix(a)), 3)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if !got[i][j].Equal(a[j][i].Conj()) {
				t.Fatalf("A†[%d][%d] mismatch", i, j)
			}
		}
	}
}

func TestBasisStateAndAmplitude(t *testing.T) {
	m := algManager(NormLeft)
	n := 4
	for idx := uint64(0); idx < 16; idx++ {
		v := m.BasisState(n, idx)
		for j := uint64(0); j < 16; j++ {
			a := m.Amplitude(v, n, j)
			if j == idx && !a.IsOne() {
				t.Fatalf("⟨%d|%d⟩ = %v, want 1", j, idx, a)
			}
			if j != idx && !a.IsZero() {
				t.Fatalf("⟨%d|%d⟩ = %v, want 0", j, idx, a)
			}
		}
		if m.Norm2(v) != 1 {
			t.Fatalf("‖|%d⟩‖² = %v", idx, m.Norm2(v))
		}
		if v.NodeCount() != n {
			t.Fatalf("basis state has %d nodes, want %d", v.NodeCount(), n)
		}
	}
}

func TestNormSchemesAgreeOnSize(t *testing.T) {
	// All three schemes are canonical, so they must detect the same
	// redundancies and produce diagrams of equal size.
	r := rand.New(rand.NewSource(58))
	for trial := 0; trial < 10; trial++ {
		amps := randQVals(r, 16)
		var sizes [3]int
		for i, norm := range []NormScheme{NormLeft, NormMax, NormGCD} {
			m := algManager(norm)
			sizes[i] = m.FromVector(amps).NodeCount()
		}
		if sizes[0] != sizes[1] || sizes[1] != sizes[2] {
			t.Fatalf("normalization schemes disagree on size: %v", sizes)
		}
	}
}

func TestGCDNormalizationCanonicity(t *testing.T) {
	m := algManager(NormGCD)
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 30; trial++ {
		amps := randQVals(r, 8)
		v1 := m.FromVector(amps)
		scaled := make([]alg.Q, len(amps))
		factor := alg.QFromD(alg.CanonD(alg.NewZomega(1, 0, 1, 2), 1)) // some D[ω] scalar
		for i, a := range amps {
			scaled[i] = a.Mul(factor)
		}
		v2 := m.FromVector(scaled)
		if m.IsZero(v1) != m.IsZero(v2) {
			t.Fatal("zero mismatch")
		}
		if !m.IsZero(v1) && v1.N != v2.N {
			t.Fatalf("GCD scheme not canonical under scaling (trial %d)", trial)
		}
	}
}

// TestNumericToleranceTradeoff demonstrates the core phenomenon of the
// paper's Section III on the smallest possible example: with ε = 0, the
// float product (1/√2)·(1/√2)·2 is 1.0000000000000002 ≠ 1, so H·H is NOT
// recognized as the identity; with any reasonable tolerance it is.
func TestNumericToleranceTradeoff(t *testing.T) {
	s := complex(1/math.Sqrt2, 0)
	hRows := [][]complex128{{s, s}, {s, -s}}

	m0 := numManager(0)
	hh0 := m0.Mul(m0.FromMatrix(hRows), m0.FromMatrix(hRows))
	if m0.RootsEqual(hh0, m0.Identity(1)) {
		t.Fatal("ε = 0 unexpectedly recognized H·H = I (float rounding should prevent this)")
	}
	got := m0.ToMatrix(hh0, 1)
	if cmplx.Abs(got[0][0]-1) > 1e-14 || cmplx.Abs(got[0][1]) > 1e-14 {
		t.Fatalf("H·H far from I even numerically: %v", got)
	}

	mt := numManager(1e-10)
	hht := mt.Mul(mt.FromMatrix(hRows), mt.FromMatrix(hRows))
	if !mt.RootsEqual(hht, mt.Identity(1)) {
		t.Fatalf("ε = 1e-10 failed to recognize H·H = I: %v", mt.ToMatrix(hht, 1))
	}
}

// TestAlgebraicExactness: the same H·H = I check succeeds exactly in the
// algebraic representation — no tolerance involved.
func TestAlgebraicExactness(t *testing.T) {
	m := algManager(NormLeft)
	s := alg.QInvSqrt2
	h := m.FromMatrix([][]alg.Q{{s, s}, {s, s.Neg()}})
	if !m.RootsEqual(m.Mul(h, h), m.Identity(1)) {
		t.Fatal("algebraic H·H ≠ I")
	}
	// T⁸ = I exactly.
	tg := m.FromMatrix([][]alg.Q{
		{alg.QOne, alg.QZero},
		{alg.QZero, alg.QFromD(alg.DOmegaVal)},
	})
	acc := m.Identity(1)
	for i := 0; i < 8; i++ {
		acc = m.Mul(acc, tg)
	}
	if !m.RootsEqual(acc, m.Identity(1)) {
		t.Fatal("algebraic T⁸ ≠ I")
	}
}

func TestSampleDistribution(t *testing.T) {
	m := numManager(0)
	s := complex(1/math.Sqrt2, 0)
	// |ψ⟩ = (|00⟩ + |11⟩)/√2 — a Bell state.
	v := m.FromVector([]complex128{s, 0, 0, s})
	smp, err := m.NewSampler(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(60))
	counts := map[uint64]int{}
	for i := 0; i < 2000; i++ {
		idx, err := smp.Draw(rng)
		if err != nil {
			t.Fatalf("sampling failed: %v", err)
		}
		counts[idx]++
	}
	if counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("sampled impossible outcomes: %v", counts)
	}
	if counts[0] < 800 || counts[3] < 800 {
		t.Fatalf("Bell state sampling skewed: %v", counts)
	}
}

func TestZeroHandling(t *testing.T) {
	m := algManager(NormLeft)
	z := m.ZeroEdge()
	v := m.BasisState(2, 1)
	if !m.RootsEqual(m.Add(z, v), v) {
		t.Fatal("0 + v ≠ v")
	}
	if !m.IsZero(m.Mul(m.Identity(2), z)) {
		t.Fatal("I·0 ≠ 0")
	}
	if !m.IsZero(m.Kron(z, v)) {
		t.Fatal("0 ⊗ v ≠ 0")
	}
	// A vector of zeros collapses to the zero stub.
	if !m.IsZero(m.FromVector([]alg.Q{alg.QZero, alg.QZero, alg.QZero, alg.QZero})) {
		t.Fatal("zero vector did not collapse")
	}
}

func TestDOTExport(t *testing.T) {
	m := algManager(NormLeft)
	v := m.BasisState(2, 2)
	var sb strings.Builder
	if err := m.DOT(&sb, v, "test"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "root", "->"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestStatsAndComputeTable(t *testing.T) {
	m := algManager(NormLeft)
	id := m.Identity(4)
	m.Mul(id, id)
	st := m.Stats()
	if st.UniqueNodes == 0 || st.CTLookups == 0 {
		t.Fatalf("stats not collected: %+v", st)
	}
	m.ct.clear()
	if s := m.Stats(); s.CTLookups != 0 {
		t.Fatalf("compute table not cleared")
	}
}

func TestTrivialWeightFraction(t *testing.T) {
	m := algManager(NormLeft)
	id := m.Identity(3)
	if f := m.TrivialWeightFraction(id); f != 1 {
		t.Fatalf("identity trivial-weight fraction = %v, want 1", f)
	}
}
