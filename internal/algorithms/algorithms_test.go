package algorithms

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dense"
	"repro/internal/synth"
)

func TestGroverFindsMarkedElement(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		marked := uint64(1)<<uint(n) - 2
		c := Grover(n, marked, 0)
		s := dense.New(n)
		if err := s.Run(c); err != nil {
			t.Fatal(err)
		}
		p := s.Probability(marked)
		want := GroverSuccessProbability(n, GroverIterations(n))
		if math.Abs(p-want) > 1e-9 {
			t.Fatalf("n=%d: P(marked) = %v, analytic %v", n, p, want)
		}
		if p < 0.8 {
			t.Fatalf("n=%d: success probability too low: %v", n, p)
		}
		// All other amplitudes are equal (two-value structure).
		var other float64
		seen := false
		for i := uint64(0); i < uint64(1)<<uint(n); i++ {
			if i == marked {
				continue
			}
			pi := s.Probability(i)
			if !seen {
				other, seen = pi, true
			} else if math.Abs(pi-other) > 1e-12 {
				t.Fatalf("n=%d: unmarked probabilities differ: %v vs %v", n, pi, other)
			}
		}
	}
}

func TestGroverIsCliffordTPlusControls(t *testing.T) {
	c := Grover(4, 3, 1)
	for _, g := range c.Gates {
		switch g.Name {
		case "h", "x", "z":
		default:
			t.Fatalf("unexpected gate %q in Grover", g.Name)
		}
	}
	if c.N != 4 {
		t.Fatalf("Grover over 4 qubits got N = %d", c.N)
	}
}

func TestIncrementerCircuit(t *testing.T) {
	// The controlled incrementer adds 1 (mod 2^k) when the control is set.
	k := 4
	c := circuit.New("inc", k+1)
	pos := []int{1, 2, 3, 4}
	appendIncrement(c, pos, circuit.Control{Qubit: 0})
	for v := 0; v < 16; v++ {
		// Control off: value unchanged.
		s := dense.New(k + 1)
		s.Amp[0] = 0
		s.Amp[v] = 1 // control bit (MSB of index) is 0
		if err := s.Run(c); err != nil {
			t.Fatal(err)
		}
		if s.Probability(uint64(v)) < 0.999 {
			t.Fatalf("control-off incrementer moved |%d⟩", v)
		}
		// Control on: value+1 mod 16.
		s2 := dense.New(k + 1)
		s2.Amp[0] = 0
		s2.Amp[16+v] = 1
		if err := s2.Run(c); err != nil {
			t.Fatal(err)
		}
		want := uint64(16 + (v+1)%16)
		if s2.Probability(want) < 0.999 {
			t.Fatalf("incrementer(|%d⟩) missed |%d⟩", v, want)
		}
	}
}

func TestDecrementerInvertsIncrementer(t *testing.T) {
	k := 3
	c := circuit.New("incdec", k+1)
	pos := []int{1, 2, 3}
	appendIncrement(c, pos, circuit.Control{Qubit: 0})
	appendDecrement(c, pos, circuit.Control{Qubit: 0})
	for v := 0; v < 16; v++ {
		s := dense.New(k + 1)
		s.Amp[0] = 0
		s.Amp[v] = 1
		if err := s.Run(c); err != nil {
			t.Fatal(err)
		}
		if s.Probability(uint64(v)) < 0.999 {
			t.Fatalf("inc∘dec moved |%d⟩ (controlled on same value)", v)
		}
	}
}

func TestBWTWalkSpreadsAndPreservesNorm(t *testing.T) {
	d := 3
	c := BWT(d, 12)
	n := c.N
	s := dense.New(n)
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Norm2()-1) > 1e-9 {
		t.Fatalf("norm drifted to %v", s.Norm2())
	}
	// After a dozen steps the walker must have left the entrance column with
	// high probability.
	k := n - 1
	pEntrance := 0.0
	for coin := 0; coin < 2; coin++ {
		pEntrance += s.Probability(uint64(coin) << uint(k))
	}
	if pEntrance > 0.8 {
		t.Fatalf("walker stuck at the entrance: P = %v", pEntrance)
	}
}

func TestBWTIsExactlyRepresentable(t *testing.T) {
	c := BWT(2, 3)
	if !hasOnly(c, "h", "x", "t", "s") {
		t.Fatalf("BWT emits gates outside {h, x, t, s}: %v", c.CountByName())
	}
}

func hasOnly(c *circuit.Circuit, names ...string) bool {
	ok := map[string]bool{}
	for _, n := range names {
		ok[n] = true
	}
	for _, g := range c.Gates {
		if !ok[g.Name] {
			return false
		}
	}
	return true
}

// TestGSEPhaseEstimation: with a commuting (Z-only) Hamiltonian the Trotter
// step is exact, so QPE must concentrate on the binary phase of the prepared
// eigenstate.
func TestGSEPhaseEstimation(t *testing.T) {
	h := Hamiltonian{
		Qubits: 2,
		Terms: []PauliTerm{
			{Coefficient: 0.25, Paulis: map[int]byte{0: 'Z'}},
			{Coefficient: -0.5, Paulis: map[int]byte{1: 'Z'}},
		},
	}
	// Prepared state |01⟩: Z₀ = +1, Z₁ = −1 ⇒ E = 0.25 + 0.5 = 0.75.
	// Choose t so the phase φ = −E·t/2π lands exactly on a register bin:
	// t = 2π/12 gives φ·16 = −1 ≡ 15.
	p := 4
	tEvol := 2 * math.Pi / 12
	cfg := GSEConfig{Hamiltonian: h, PhaseBits: p, Time: tEvol, Trotter: 1, PrepareX: []int{1}}
	c := GSE(cfg)
	s := dense.New(c.N)
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	phase := math.Mod(-0.75*tEvol/(2*math.Pi)+1, 1)
	wantIdx := uint64(math.Round(phase*16)) % 16
	if wantIdx != 15 {
		t.Fatalf("test setup wrong: expected bin 15, computed %d", wantIdx)
	}
	// Marginal distribution of the phase register (top p qubits).
	probs := make([]float64, 16)
	for i := range s.Amp {
		probs[i>>uint(h.Qubits)] += s.Probability(uint64(i))
	}
	best := 0
	for i, pr := range probs {
		if pr > probs[best] {
			best = i
		}
	}
	if uint64(best) != wantIdx {
		t.Fatalf("QPE peak at %d, want %d (distribution %v)", best, wantIdx, probs)
	}
	if probs[best] < 0.99 {
		t.Fatalf("QPE peak not sharp for exact phase: %v", probs[best])
	}
}

// TestGSEH2GroundEnergy: the full H₂ GSE run peaks at a phase compatible
// with the true ground energy (Trotterized, so allow one-bin slack).
func TestGSEH2GroundEnergy(t *testing.T) {
	h := H2Hamiltonian()
	m := h.Dense()
	// Power iteration on (shift − H) for the minimal eigenvalue of the 4×4.
	eMin := minEigen(m)
	p := 5
	tEvol := 0.75 // keep |E|t < π to avoid phase wrapping
	cfg := GSEConfig{Hamiltonian: h, PhaseBits: p, Time: tEvol, Trotter: 4, PrepareX: []int{0}}
	c := GSE(cfg)
	s := dense.New(c.N)
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	bins := 1 << uint(p)
	probs := make([]float64, bins)
	for i := range s.Amp {
		probs[i>>uint(h.Qubits)] += s.Probability(uint64(i))
	}
	best := 0
	for i, pr := range probs {
		if pr > probs[best] {
			best = i
		}
	}
	phase := float64(best) / float64(bins)
	if phase > 0.5 {
		phase -= 1
	}
	eEst := -phase * 2 * math.Pi / tEvol
	if math.Abs(eEst-eMin) > 2*2*math.Pi/tEvol/float64(bins) {
		t.Fatalf("estimated ground energy %v, true %v (peak bin %d)", eEst, eMin, best)
	}
}

func minEigen(m [][]complex128) float64 {
	// Inverse-free: scan Rayleigh quotients of e^{−iθ}… use simple power
	// iteration on (cI − H) for c = 3 (‖H‖ < 3 for these Hamiltonians).
	dim := len(m)
	v := make([]complex128, dim)
	v[1] = 1
	for it := 0; it < 4000; it++ {
		w := make([]complex128, dim)
		for i := 0; i < dim; i++ {
			w[i] = 3 * v[i]
			for j := 0; j < dim; j++ {
				w[i] -= m[i][j] * v[j]
			}
		}
		n := 0.0
		for _, x := range w {
			n += real(x)*real(x) + imag(x)*imag(x)
		}
		n = math.Sqrt(n)
		for i := range w {
			v[i] = w[i] / complex(n, 0)
		}
	}
	// Rayleigh quotient v†Hv.
	e := complex(0, 0)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			e += cmplx.Conj(v[i]) * m[i][j] * v[j]
		}
	}
	return real(e)
}

func TestCompileCliffordT(t *testing.T) {
	raw := circuit.New("raw", 2)
	raw.H(0).Append(circuit.Gate{Name: "rz", Target: 0, Params: []float64{0.37}}).
		CP(0.9, 0, 1).Append(circuit.Gate{Name: "rx", Target: 1, Params: []float64{-0.4}}).
		Append(circuit.Gate{Name: "ry", Target: 0, Params: []float64{0.22}}).P(1.1, 1).CX(0, 1)
	s := synth.New(12)
	ct, totalErr, err := CompileCliffordT(raw, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range ct.Gates {
		if !isExactName(g.Name) {
			t.Fatalf("compiled circuit still has parametric gates: %v", ct.CountByName())
		}
	}
	// Compare the unitaries up to global phase via |tr(U1† U2)| / dim. The
	// SK synthesizer is deliberately coarse (small base net), so this is a
	// sanity bound, not a precision claim.
	u1 := denseUnitary(raw, 2)
	u2 := denseUnitary(ct, 2)
	f := fidelityTrace(u1, u2)
	if f < 0.9 {
		t.Fatalf("compiled unitary fidelity %v (reported error %v)", f, totalErr)
	}
	// Deeper SK must not be worse than base-net compilation.
	ct0, _, err := CompileCliffordT(raw, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	f0 := fidelityTrace(u1, denseUnitary(ct0, 2))
	if f < f0-0.05 {
		t.Fatalf("depth-2 fidelity %v below depth-0 fidelity %v", f, f0)
	}
	if totalErr > 1 {
		t.Fatalf("accumulated synthesis error suspiciously large: %v", totalErr)
	}
}

func denseUnitary(c *circuit.Circuit, n int) [][]complex128 {
	dim := 1 << uint(n)
	u := make([][]complex128, dim)
	for col := 0; col < dim; col++ {
		s := dense.New(n)
		s.Amp[0] = 0
		s.Amp[col] = 1
		if err := s.Run(c); err != nil {
			panic(err)
		}
		for row := 0; row < dim; row++ {
			if u[row] == nil {
				u[row] = make([]complex128, dim)
			}
			u[row][col] = s.Amp[row]
		}
	}
	return u
}

func fidelityTrace(a, b [][]complex128) float64 {
	dim := len(a)
	tr := complex(0, 0)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			tr += cmplx.Conj(a[j][i]) * b[j][i]
		}
	}
	return cmplx.Abs(tr) / float64(dim)
}

func TestCompileRejectsUnknownControlledGates(t *testing.T) {
	raw := circuit.New("bad", 2)
	raw.Append(circuit.Gate{Name: "ry", Target: 1, Controls: []circuit.Control{{Qubit: 0}}, Params: []float64{0.3}})
	s := synth.New(6)
	if _, _, err := CompileCliffordT(raw, s, 1); err == nil {
		t.Fatal("controlled-ry compiled without error")
	}
}
