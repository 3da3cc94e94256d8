package repro

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/num"
	"repro/internal/qasm"
	"repro/internal/sim"
	"repro/internal/synth"
)

// Integration tests that exercise whole pipelines across module boundaries.

const qftQASM = `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cu1(pi/2) q[1],q[0];
cu1(pi/4) q[2],q[0];
h q[1];
cu1(pi/2) q[2],q[1];
h q[2];
swap q[0],q[2];
`

// TestQASMToBothRepresentations parses a QFT circuit, simulates it densely
// and with the numerical QMDD, and checks the amplitudes agree.
func TestQASMToBothRepresentations(t *testing.T) {
	c, err := qasm.Parse(qftQASM, "qft3")
	if err != nil {
		t.Fatal(err)
	}
	ref := dense.New(c.N)
	if err := ref.Run(c); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager[complex128](num.NewRing(1e-12), core.NormMax)
	s := sim.New(m, c.N)
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Amp {
		got := m.Amplitude(s.State, c.N, uint64(i))
		if cmplx.Abs(got-ref.Amp[i]) > 1e-9 {
			t.Fatalf("amp[%d] = %v, want %v", i, got, ref.Amp[i])
		}
	}
	// The QFT of |0…0⟩ is the uniform superposition.
	for i := range ref.Amp {
		if math.Abs(m.Probability(s.State, c.N, uint64(i))-1.0/8) > 1e-9 {
			t.Fatalf("QFT|0⟩ not uniform at %d", i)
		}
	}
}

// TestCompiledGSEExactInBothWorlds: the Clifford+T compilation of GSE runs
// exactly on the algebraic ring (which rejects the raw circuit), and the
// numerical ε = 0 run of the identical circuit matches it to float accuracy.
func TestCompiledGSEExactInBothWorlds(t *testing.T) {
	raw := algorithms.GSE(algorithms.GSEConfig{
		Hamiltonian: algorithms.H2Hamiltonian(),
		PhaseBits:   2,
		Time:        0.75,
		Trotter:     1,
		PrepareX:    []int{0},
	})
	mAlg := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	if err := sim.New(mAlg, raw.N).Run(raw, nil); err == nil {
		t.Fatal("raw GSE (with rotations) accepted by the exact ring")
	}
	ct, _, err := algorithms.CompileCliffordT(raw, synth.New(9), 1)
	if err != nil {
		t.Fatal(err)
	}
	sa := sim.New(mAlg, ct.N)
	if err := sa.Run(ct, nil); err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(mAlg.Norm2(sa.State) - 1); d > 1e-12 {
		t.Fatalf("exact norm drifted by %v", d)
	}
	mNum := core.NewManager[complex128](num.NewRing(0), core.NormMax)
	sn := sim.New(mNum, ct.N)
	if err := sn.Run(ct, nil); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < uint64(1)<<uint(ct.N); i++ {
		ga := mAlg.R.Complex128(mAlg.Amplitude(sa.State, ct.N, i))
		gn := mNum.Amplitude(sn.State, ct.N, i)
		if cmplx.Abs(ga-gn) > 1e-9 {
			t.Fatalf("amp[%d]: algebraic %v vs numeric %v", i, ga, gn)
		}
	}
}

// TestEquivalenceAcrossNormSchemes: the same pair of equivalent circuits is
// recognized under every algebraic normalization scheme.
func TestEquivalenceAcrossNormSchemes(t *testing.T) {
	lhs := circuit.New("lhs", 2)
	lhs.H(0).H(1).CX(0, 1).H(0).H(1)
	rhs := circuit.New("rhs", 2)
	rhs.CX(1, 0)
	for _, norm := range []core.NormScheme{core.NormLeft, core.NormMax, core.NormGCD} {
		m := core.NewManager[alg.Q](alg.Ring{}, norm)
		eq, err := sim.Equivalent(m, lhs, rhs)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("[%v] equivalence not recognized", norm)
		}
	}
}

// TestQASMRoundTripThroughQMDD: write a generated circuit to QASM, parse it
// back, and verify the two circuit unitaries coincide exactly.
func TestQASMRoundTripThroughQMDD(t *testing.T) {
	c := circuit.New("rt", 3)
	c.H(0).T(1).CX(0, 1).CCX(0, 1, 2).S(2).
		Append(circuit.Gate{Name: "z", Target: 2, Controls: []circuit.Control{{Qubit: 1}}}).Tdg(0)
	var sb strings.Builder
	if err := qasm.Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := qasm.Parse(sb.String(), "rt2")
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	eq, err := sim.Equivalent(m, c, c2)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("QASM round trip changed the unitary")
	}
}

// TestMatVecVsMatMatAgree: simulating gate by gate (matrix-vector) and
// applying the prebuilt circuit unitary (matrix-matrix) give the identical
// canonical state — the consistency behind the paper's design-task claims.
func TestMatVecVsMatMatAgree(t *testing.T) {
	c := algorithms.Grover(6, 37, 0)
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	s := sim.New(m, c.N)
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	u, err := sim.BuildUnitary(m, c)
	if err != nil {
		t.Fatal(err)
	}
	viaU := m.Mul(u, m.BasisState(c.N, 0))
	if !m.RootsEqual(viaU, s.State) {
		t.Fatal("matrix-vector and matrix-matrix evolution disagree")
	}
}

// TestUnitarityOfWorkloads: every generated benchmark circuit's unitary U
// satisfies U·U† = I with identical roots (exactly).
func TestUnitarityOfWorkloads(t *testing.T) {
	workloads := []*circuit.Circuit{
		algorithms.Grover(4, 5, 1),
		algorithms.BWT(2, 2),
	}
	for _, c := range workloads {
		m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
		u, err := sim.BuildUnitary(m, c)
		if err != nil {
			t.Fatal(err)
		}
		if !m.RootsEqual(m.Mul(u, m.Adjoint(u)), m.Identity(c.N)) {
			t.Fatalf("%s unitary is not unitary", c.Name)
		}
	}
}

// toffoliCliffordT is the textbook 7-T-gate Clifford+T decomposition of the
// Toffoli gate (controls a, b; target t).
func toffoliCliffordT(a, b, tq int) *circuit.Circuit {
	n := maxInt(a, maxInt(b, tq)) + 1
	c := circuit.New("toffoli-ct", n)
	c.H(tq)
	c.CX(b, tq)
	c.Tdg(tq)
	c.CX(a, tq)
	c.T(tq)
	c.CX(b, tq)
	c.Tdg(tq)
	c.CX(a, tq)
	c.T(b).T(tq)
	c.H(tq)
	c.CX(a, b)
	c.T(a).Tdg(b)
	c.CX(a, b)
	return c
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestToffoliDecompositionExactEquivalence: the 7-T decomposition equals the
// native Toffoli exactly — verified by the O(1) root comparison, the check
// floating-point representations cannot make at ε = 0.
func TestToffoliDecompositionExactEquivalence(t *testing.T) {
	native := circuit.New("ccx", 3)
	native.CCX(0, 1, 2)
	decomp := toffoliCliffordT(0, 1, 2)

	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	eq, err := sim.Equivalent(m, native, decomp)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("7-T Toffoli decomposition not exactly equivalent to CCX")
	}
	// The numerical ε = 0 check fails on the same pair (rounding).
	mNum := core.NewManager[complex128](num.NewRing(0), core.NormMax)
	eqNum, err := sim.Equivalent(mNum, native, decomp)
	if err != nil {
		t.Fatal(err)
	}
	if eqNum {
		t.Log("note: ε = 0 float comparison happened to succeed on this platform")
	}
}

// TestExactSynthesisOfCircuitUnitary: round-trip a Clifford+T circuit
// through its dense D[ω] matrix and the Giles–Selinger synthesis, verifying
// exact equivalence by QMDD roots.
func TestExactSynthesisOfCircuitUnitary(t *testing.T) {
	orig := toffoliCliffordT(0, 1, 2)
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	u, err := sim.BuildUnitary(m, orig)
	if err != nil {
		t.Fatal(err)
	}
	rows := m.ToMatrix(u, 3)
	mat := make([][]alg.D, len(rows))
	for i, row := range rows {
		mat[i] = make([]alg.D, len(row))
		for j, q := range row {
			d, ok := q.InD()
			if !ok {
				t.Fatalf("entry (%d,%d) not in D[ω]", i, j)
			}
			mat[i][j] = d
		}
	}
	resynth, err := synth.ExactSynthesizeMultiQubit(mat, 3)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := sim.BuildUnitary(m, resynth)
	if err != nil {
		t.Fatal(err)
	}
	if !m.RootsEqual(u, u2) {
		t.Fatal("exact synthesis changed the unitary")
	}
}
