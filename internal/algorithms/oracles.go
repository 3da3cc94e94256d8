package algorithms

import "repro/internal/circuit"

// Further standard benchmark workloads from the QMDD literature. Deutsch–
// Jozsa and Bernstein–Vazirani are pure Clifford(+multi-control) circuits —
// exactly representable like Grover and BWT.

// DeutschJozsa builds the Deutsch–Jozsa circuit over n input qubits plus one
// ancilla. The oracle is balanced iff mask ≠ 0: f(x) = parity(x & mask)
// (implemented as CNOTs into the ancilla); mask = 0 gives the constant-0
// function. Measuring the input register yields |0…0⟩ iff f is constant.
func DeutschJozsa(n int, mask uint64) *circuit.Circuit {
	if n < 1 {
		panic("algorithms: DeutschJozsa needs at least one input qubit")
	}
	if mask >= uint64(1)<<uint(n) {
		panic("algorithms: mask out of range")
	}
	c := circuit.New("dj", n+1)
	anc := n
	// |−⟩ ancilla.
	c.X(anc)
	c.H(anc)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	// Oracle: f(x) = parity(x & mask) via CNOTs into the ancilla.
	for q := 0; q < n; q++ {
		if (mask>>(uint(n)-1-uint(q)))&1 == 1 {
			c.CX(q, anc)
		}
	}
	for q := 0; q < n; q++ {
		c.H(q)
	}
	return c
}

// BernsteinVazirani builds the Bernstein–Vazirani circuit recovering the
// hidden string s (bit n−1−q of secret is the value for qubit q) in a single
// oracle query. Layout matches DeutschJozsa (n inputs + ancilla).
func BernsteinVazirani(n int, secret uint64) *circuit.Circuit {
	if n < 1 {
		panic("algorithms: BernsteinVazirani needs at least one input qubit")
	}
	if secret >= uint64(1)<<uint(n) {
		panic("algorithms: secret out of range")
	}
	c := circuit.New("bv", n+1)
	anc := n
	c.X(anc)
	c.H(anc)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for q := 0; q < n; q++ {
		if (secret>>(uint(n)-1-uint(q)))&1 == 1 {
			c.CX(q, anc)
		}
	}
	for q := 0; q < n; q++ {
		c.H(q)
	}
	return c
}
