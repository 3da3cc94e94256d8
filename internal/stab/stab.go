// Package stab implements the Aaronson–Gottesman CHP stabilizer tableau — a
// polynomial-time simulator for Clifford circuits (H, S, CNOT and their
// compositions). It serves as the third, independent validation oracle of
// this reproduction: the dense simulator checks QMDDs up to ~16 qubits; the
// tableau checks Clifford behaviour (probabilities and stabilizer
// membership) at hundreds of qubits, where only a compact decision diagram
// can follow.
package stab

import (
	"fmt"
	"strings"
)

// Tableau is the stabilizer tableau of an n-qubit state: rows 0..n−1 are
// the destabilizer generators, rows n..2n−1 the stabilizer generators.
// Row i stores Pauli X/Z bits per qubit plus a sign bit.
type Tableau struct {
	N int
	// x[i][q], z[i][q] packed per row; r[i] is the sign (true = −1).
	x, z [][]bool
	r    []bool
}

// New returns the tableau of |0…0⟩.
func New(n int) *Tableau {
	if n < 1 {
		panic("stab: need at least one qubit")
	}
	t := &Tableau{N: n}
	rows := 2 * n
	t.x = make([][]bool, rows)
	t.z = make([][]bool, rows)
	t.r = make([]bool, rows)
	for i := 0; i < rows; i++ {
		t.x[i] = make([]bool, n)
		t.z[i] = make([]bool, n)
	}
	for q := 0; q < n; q++ {
		t.x[q][q] = true   // destabilizer X_q
		t.z[n+q][q] = true // stabilizer Z_q
	}
	return t
}

// H applies a Hadamard to qubit q.
func (t *Tableau) H(q int) {
	for i := range t.x {
		if t.x[i][q] && t.z[i][q] {
			t.r[i] = !t.r[i]
		}
		t.x[i][q], t.z[i][q] = t.z[i][q], t.x[i][q]
	}
}

// S applies the phase gate to qubit q.
func (t *Tableau) S(q int) {
	for i := range t.x {
		if t.x[i][q] && t.z[i][q] {
			t.r[i] = !t.r[i]
		}
		t.z[i][q] = t.z[i][q] != t.x[i][q]
	}
}

// Sdg applies S†.
func (t *Tableau) Sdg(q int) { t.S(q); t.S(q); t.S(q) }

// X applies a Pauli X (= H·S²·H, done directly on signs).
func (t *Tableau) X(q int) {
	for i := range t.x {
		if t.z[i][q] {
			t.r[i] = !t.r[i]
		}
	}
}

// Z applies a Pauli Z.
func (t *Tableau) Z(q int) {
	for i := range t.x {
		if t.x[i][q] {
			t.r[i] = !t.r[i]
		}
	}
}

// Y applies a Pauli Y.
func (t *Tableau) Y(q int) { t.Z(q); t.X(q) }

// CX applies a CNOT with control c and target tg.
func (t *Tableau) CX(c, tg int) {
	for i := range t.x {
		if t.x[i][c] && t.z[i][tg] && (t.x[i][tg] == t.z[i][c]) {
			t.r[i] = !t.r[i]
		}
		t.x[i][tg] = t.x[i][tg] != t.x[i][c]
		t.z[i][c] = t.z[i][c] != t.z[i][tg]
	}
}

// CZ applies a controlled-Z (H on target conjugating a CNOT).
func (t *Tableau) CZ(c, tg int) {
	t.H(tg)
	t.CX(c, tg)
	t.H(tg)
}

// rowMult multiplies row i into row h (h ← h·i), tracking the phase.
func (t *Tableau) rowMult(h, i int) {
	// Phase exponent of i^k accumulated over qubits.
	g := 0
	for q := 0; q < t.N; q++ {
		g += phaseExp(t.x[i][q], t.z[i][q], t.x[h][q], t.z[h][q])
	}
	if t.r[h] {
		g += 2
	}
	if t.r[i] {
		g += 2
	}
	t.r[h] = ((g%4)+4)%4 == 2
	for q := 0; q < t.N; q++ {
		t.x[h][q] = t.x[h][q] != t.x[i][q]
		t.z[h][q] = t.z[h][q] != t.z[i][q]
	}
}

// phaseExp is the Aaronson–Gottesman g function: the exponent of i when
// multiplying single-qubit Paulis (x1,z1)·(x2,z2).
func phaseExp(x1, z1, x2, z2 bool) int {
	switch {
	case !x1 && !z1:
		return 0
	case x1 && z1: // Y
		return b2i(z2) - b2i(x2)
	case x1 && !z1: // X
		if z2 {
			return 2*b2i(x2) - 1
		}
		return 0
	default: // Z
		if x2 {
			return 1 - 2*b2i(z2)
		}
		return 0
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// MeasureIsRandom reports whether measuring qubit q in the computational
// basis has a random outcome (probability 1/2 each); if not, the
// deterministic outcome is returned.
func (t *Tableau) MeasureIsRandom(q int) (random bool, outcome int) {
	n := t.N
	for p := n; p < 2*n; p++ {
		if t.x[p][q] {
			return true, 0
		}
	}
	// Deterministic: accumulate the sign of the product of stabilizers
	// whose destabilizer partner anticommutes with Z_q.
	scratch := len(t.x)
	t.x = append(t.x, make([]bool, n))
	t.z = append(t.z, make([]bool, n))
	t.r = append(t.r, false)
	defer func() {
		t.x = t.x[:scratch]
		t.z = t.z[:scratch]
		t.r = t.r[:scratch]
	}()
	for p := 0; p < n; p++ {
		if t.x[p][q] {
			t.rowMult(scratch, p+n)
		}
	}
	if t.r[scratch] {
		return false, 1
	}
	return false, 0
}

// ExpectationZ returns the exact expectation of Z on qubit q: 0 when the
// outcome is random, ±1 when deterministic.
func (t *Tableau) ExpectationZ(q int) int {
	random, outcome := t.MeasureIsRandom(q)
	if random {
		return 0
	}
	if outcome == 1 {
		return -1
	}
	return 1
}

// String renders the stabilizer generators like "+XXI / +ZZI".
func (t *Tableau) String() string {
	var sb strings.Builder
	for p := t.N; p < 2*t.N; p++ {
		if t.r[p] {
			sb.WriteByte('-')
		} else {
			sb.WriteByte('+')
		}
		for q := 0; q < t.N; q++ {
			switch {
			case t.x[p][q] && t.z[p][q]:
				sb.WriteByte('Y')
			case t.x[p][q]:
				sb.WriteByte('X')
			case t.z[p][q]:
				sb.WriteByte('Z')
			default:
				sb.WriteByte('I')
			}
		}
		if p != 2*t.N-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Apply dispatches a named Clifford gate. It returns an error for
// non-Clifford gates (T etc.) — the tableau cannot represent them.
func (t *Tableau) Apply(name string, target int, controls []int) error {
	if len(controls) > 1 {
		return fmt.Errorf("stab: gate %q with %d controls is not Clifford", name, len(controls))
	}
	if len(controls) == 1 {
		switch name {
		case "x":
			t.CX(controls[0], target)
			return nil
		case "z":
			t.CZ(controls[0], target)
			return nil
		}
		return fmt.Errorf("stab: controlled %q is not Clifford", name)
	}
	switch name {
	case "h":
		t.H(target)
	case "s":
		t.S(target)
	case "sdg":
		t.Sdg(target)
	case "x":
		t.X(target)
	case "y":
		t.Y(target)
	case "z":
		t.Z(target)
	case "id", "i":
		// no-op
	default:
		return fmt.Errorf("stab: gate %q is not Clifford", name)
	}
	return nil
}
