package gates

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/alg"
	"repro/internal/core"
	"repro/internal/num"
)

func algM() *core.Manager[alg.Q] {
	return core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
}

func TestExactGateValues(t *testing.T) {
	cases := []struct {
		name string
		want [2][2]complex128
	}{
		{"x", [2][2]complex128{{0, 1}, {1, 0}}},
		{"z", [2][2]complex128{{1, 0}, {0, -1}}},
		{"y", [2][2]complex128{{0, -1i}, {1i, 0}}},
		{"s", [2][2]complex128{{1, 0}, {0, 1i}}},
		{"h", [2][2]complex128{
			{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
			{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)}}},
		{"t", [2][2]complex128{{1, 0}, {0, complex(1/math.Sqrt2, 1/math.Sqrt2)}}},
	}
	for _, c := range cases {
		g, ok := Exact(c.name)
		if !ok {
			t.Fatalf("gate %q not found", c.name)
		}
		got := g.Complex()
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if cmplx.Abs(got[i][j]-c.want[i][j]) > 1e-14 {
					t.Fatalf("%s[%d][%d] = %v, want %v", c.name, i, j, got[i][j], c.want[i][j])
				}
			}
		}
	}
}

func mulM2(a, b [2][2]alg.Q) [2][2]alg.Q {
	var out [2][2]alg.Q
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			out[i][j] = a[i][0].Mul(b[0][j]).Add(a[i][1].Mul(b[1][j]))
		}
	}
	return out
}

func eqM2(a, b Matrix2) bool {
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !a[i][j].Equal(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestGateAlgebra: the paper's Example 2 relations S = T², Z = S², plus
// inverses and unitarity — all exactly.
func TestGateAlgebra(t *testing.T) {
	if !eqM2(Matrix2(mulM2([2][2]alg.Q(T), [2][2]alg.Q(T))), S) {
		t.Fatal("T² ≠ S")
	}
	if !eqM2(Matrix2(mulM2([2][2]alg.Q(S), [2][2]alg.Q(S))), Z) {
		t.Fatal("S² ≠ Z")
	}
	if !eqM2(Matrix2(mulM2([2][2]alg.Q(H), [2][2]alg.Q(H))), I) {
		t.Fatal("H² ≠ I")
	}
	if !eqM2(Matrix2(mulM2([2][2]alg.Q(SX), [2][2]alg.Q(SX))), X) {
		t.Fatal("SX² ≠ X")
	}
	if !eqM2(Matrix2(mulM2([2][2]alg.Q(T), [2][2]alg.Q(Tdg))), I) {
		t.Fatal("T·T† ≠ I")
	}
	// Unitarity: U·U† = I for each exact gate.
	for _, name := range []string{"x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg"} {
		g, _ := Exact(name)
		var adj [2][2]alg.Q
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				adj[i][j] = g[j][i].Conj()
			}
		}
		if !eqM2(Matrix2(mulM2([2][2]alg.Q(g), adj)), I) {
			t.Fatalf("%s not unitary", name)
		}
	}
}

func TestNumericRotations(t *testing.T) {
	// Rz(π/4) must equal T up to global phase e^{−iπ/8}.
	rz := RZ(math.Pi / 4)
	tg, _ := Exact("t")
	tc := tg.Complex()
	phase := rz[0][0] / tc[0][0]
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(rz[i][j]-phase*tc[i][j]) > 1e-14 {
				t.Fatalf("Rz(π/4) ≠ T up to phase at [%d][%d]", i, j)
			}
		}
	}
	// Phase(θ) at θ = π/2 is S.
	p := Phase(math.Pi / 2)
	sc := S.Complex()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(p[i][j]-sc[i][j]) > 1e-14 {
				t.Fatalf("P(π/2) ≠ S")
			}
		}
	}
	if _, err := Numeric("nosuchgate", nil); err == nil {
		t.Fatal("unknown gate accepted")
	}
	if _, err := Numeric("rz", nil); err == nil {
		t.Fatal("rz without parameter accepted")
	}
}

// TestBuildDDCNOT checks the paper's Example 2 CNOT matrix.
func TestBuildDDCNOT(t *testing.T) {
	m := algM()
	dd := BuildDD(m, 2, BaseFor(m, X), 1, []Control{{Qubit: 0}})
	got := m.ToMatrix(dd, 2)
	want := [4][4]int64{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !got[i][j].Equal(alg.NewQ(0, 0, 0, want[i][j], 0, 1)) {
				t.Fatalf("CNOT[%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestBuildDDControlBelowTarget(t *testing.T) {
	// CNOT with control on qubit 1 (bottom) and target on qubit 0 (top):
	// swaps |01⟩ ↔ |11⟩.
	m := algM()
	dd := BuildDD(m, 2, BaseFor(m, X), 0, []Control{{Qubit: 1}})
	got := m.ToMatrix(dd, 2)
	want := [4][4]int64{
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !got[i][j].Equal(alg.NewQ(0, 0, 0, want[i][j], 0, 1)) {
				t.Fatalf("upward CNOT[%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestBuildDDNegativeControl(t *testing.T) {
	m := algM()
	dd := BuildDD(m, 2, BaseFor(m, X), 1, []Control{{Qubit: 0, Neg: true}})
	got := m.ToMatrix(dd, 2)
	// Fires when control is |0⟩: swaps |00⟩ ↔ |01⟩.
	want := [4][4]int64{
		{0, 1, 0, 0},
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !got[i][j].Equal(alg.NewQ(0, 0, 0, want[i][j], 0, 1)) {
				t.Fatalf("neg-CNOT[%d][%d] = %v", i, j, got[i][j])
			}
		}
	}
}

func TestBuildDDToffoli(t *testing.T) {
	m := algM()
	dd := BuildDD(m, 3, BaseFor(m, X), 2, []Control{{Qubit: 0}, {Qubit: 1}})
	// Toffoli permutes |110⟩ ↔ |111⟩ and fixes everything else.
	for in := uint64(0); in < 8; in++ {
		want := in
		if in>>1 == 3 {
			want = in ^ 1
		}
		for out := uint64(0); out < 8; out++ {
			e := m.Entry(dd, 3, out, in)
			if out == want && !e.IsOne() {
				t.Fatalf("Toffoli[%d][%d] = %v, want 1", out, in, e)
			}
			if out != want && !e.IsZero() {
				t.Fatalf("Toffoli[%d][%d] = %v, want 0", out, in, e)
			}
		}
	}
	// A Toffoli over 3 qubits is unitary: U·U† = I with identical roots.
	if !m.RootsEqual(m.Mul(dd, m.Adjoint(dd)), m.Identity(3)) {
		t.Fatal("Toffoli·Toffoli† ≠ I")
	}
}

func TestBuildDDCompactness(t *testing.T) {
	// A Hadamard on qubit 0 of a 10-qubit register: the gate diagram must be
	// linear in n, not exponential.
	m := algM()
	dd := BuildDD(m, 10, BaseFor(m, H), 0, nil)
	if got := dd.NodeCount(); got != 10 {
		t.Fatalf("H⊗I⁹ gate DD has %d nodes, want 10", got)
	}
	// Multi-controlled X over 10 qubits: still linear.
	ctrls := make([]Control, 9)
	for i := range ctrls {
		ctrls[i] = Control{Qubit: i}
	}
	mcx := BuildDD(m, 10, BaseFor(m, X), 9, ctrls)
	if got := mcx.NodeCount(); got > 2*10 {
		t.Fatalf("MCX gate DD has %d nodes, want O(n)", got)
	}
}

func TestBuildDDNumericRing(t *testing.T) {
	m := core.NewManager[complex128](num.NewRing(1e-12), core.NormLeft)
	var base [2][2]complex128
	hc := H.Complex()
	for i := range hc {
		for j := range hc[i] {
			base[i][j] = hc[i][j]
		}
	}
	dd := BuildDD(m, 2, base, 0, nil)
	got := m.ToMatrix(dd, 2)
	s := 1 / math.Sqrt2
	want := [][]complex128{
		{complex(s, 0), 0, complex(s, 0), 0},
		{0, complex(s, 0), 0, complex(s, 0)},
		{complex(s, 0), 0, complex(-s, 0), 0},
		{0, complex(s, 0), 0, complex(-s, 0)},
	}
	for i := range want {
		for j := range want[i] {
			if cmplx.Abs(got[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("numeric H⊗I[%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}
