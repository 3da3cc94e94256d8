package algorithms

import (
	"repro/internal/circuit"
)

// BWT builds a discrete-time coined quantum walk for the Binary Welded Tree
// problem (Childs et al. [38]).
//
// Substitution note (documented in DESIGN.md): the paper simulates a
// compiled BWT circuit from its private benchmark suite. This generator
// reproduces the two structural properties that make BWT a decision-diagram
// benchmark:
//
//  1. The column reduction — the two glued binary trees of depth d project
//     onto a line of 2d + 2 columns (entrance 0, exit 2d + 1) on which a
//     coined walk proceeds; the column index lives in a ⌈log₂(2d+2)⌉-bit
//     register moved by reversible increment/decrement cascades.
//  2. The symmetric subspace — the walk never distinguishes the 2^c paths
//     within a column: path qubits are split into uniform superposition
//     when the walker descends (a column-controlled Hadamard on the child
//     bit) and merged back when it ascends. The state therefore carries
//     per-column product structure over the path register, which is
//     exactly the redundancy a QMDD shares — and exactly what breaks when
//     floating-point weights round differently along different branches.
//
// The coin is a T-biased Hadamard and the weld column carries an extra T
// phase (the weld's deviating hop weight). Every gate is in the Clifford+T
// family with multi-controls, so — like the paper's BWT — the entire
// computation is exactly representable in D[ω].
//
// Register layout: qubit 0 = coin; qubits 1..k = column (MSB first);
// qubits k+1..k+pathBits = path register.
func BWT(depth, steps int) *circuit.Circuit {
	return BWTWithPath(depth, steps, defaultPathBits(depth))
}

func defaultPathBits(depth int) int {
	if depth > 8 {
		return 8
	}
	return depth
}

// BWTWithPath is BWT with an explicit path-register width (0 disables the
// symmetric-subspace structure and yields the bare column walk).
func BWTWithPath(depth, steps, pathBits int) *circuit.Circuit {
	if depth < 1 {
		panic("algorithms: BWT depth must be ≥ 1")
	}
	if steps < 1 {
		panic("algorithms: BWT needs at least one step")
	}
	if pathBits < 0 {
		panic("algorithms: negative path register")
	}
	columns := 2*depth + 2
	k := 1
	for (1 << uint(k)) < columns {
		k++
	}
	c := circuit.New("bwt", 1+k+pathBits)
	coin := 0
	pos := make([]int, k)
	for i := range pos {
		pos[i] = i + 1
	}
	path := make([]int, pathBits)
	for i := range path {
		path[i] = k + 1 + i
	}

	// Start at the entrance column (|0…0⟩) with a balanced coin.
	c.H(coin)

	weldLow := depth // the weld sits between columns depth and depth+1

	// columnControls returns the control pattern "column register == v".
	columnControls := func(v int, extra ...circuit.Control) []circuit.Control {
		ctrls := append([]circuit.Control{}, extra...)
		for i, q := range pos {
			bit := (v >> uint(k-1-i)) & 1
			ctrls = append(ctrls, circuit.Control{Qubit: q, Neg: bit == 0})
		}
		return ctrls
	}
	// childBit maps a column to the path bit that branches there: the tree
	// branches on the way down (c < depth) and un-branches mirror-wise on
	// the way up to the exit root.
	childBit := func(col int) int {
		b := col
		if mirror := 2*depth + 1 - col; mirror < b {
			b = mirror
		}
		if b >= pathBits {
			return -1
		}
		return b
	}

	for s := 0; s < steps; s++ {
		// Biased coin: T·H (the weld asymmetry of the reduced walk).
		c.H(coin)
		c.T(coin)
		// Weld marking: a T phase when the walker stands on the weld column.
		c.Append(circuit.Gate{Name: "t", Target: pos[k-1],
			Controls: columnControls(weldLow)[0 : k-1]})
		// Child split on descent: for every column c the walker may leave
		// downwards (coin 1), put the branching path bit into uniform
		// superposition before the shift.
		for col := 0; col < columns-1; col++ {
			if b := childBit(col); b >= 0 && col < depth {
				c.Append(circuit.Gate{Name: "h", Target: path[b],
					Controls: columnControls(col, circuit.Control{Qubit: coin})})
			}
		}
		// Conditional shift: coin |1⟩ increments the column, coin |0⟩
		// decrements it (cyclically).
		appendIncrement(c, pos, circuit.Control{Qubit: coin})
		appendDecrement(c, pos, circuit.Control{Qubit: coin, Neg: true})
		// Child merge on ascent: after decrementing, the walker that moved
		// up from column col+1 to col merges the branching bit of col.
		for col := 0; col < columns-1; col++ {
			if b := childBit(col); b >= 0 && col < depth {
				c.Append(circuit.Gate{Name: "h", Target: path[b],
					Controls: columnControls(col, circuit.Control{Qubit: coin, Neg: true})})
			}
		}
	}
	return c
}

// appendIncrement emits a reversible +1 circuit on the given qubits
// (qs[0] = MSB), with one extra control line on every gate. The standard
// carry cascade: each bit flips iff all lower bits are 1.
func appendIncrement(c *circuit.Circuit, qs []int, extra circuit.Control) {
	k := len(qs)
	for i := 0; i < k; i++ {
		// Target qs[i]; controls: all lower-significance bits qs[i+1:].
		ctrls := []circuit.Control{extra}
		for _, q := range qs[i+1:] {
			ctrls = append(ctrls, circuit.Control{Qubit: q})
		}
		c.Append(circuit.Gate{Name: "x", Target: qs[i], Controls: ctrls})
	}
}

// appendDecrement emits the inverse cascade (−1): each bit flips iff all
// lower bits are 0.
func appendDecrement(c *circuit.Circuit, qs []int, extra circuit.Control) {
	k := len(qs)
	for i := 0; i < k; i++ {
		ctrls := []circuit.Control{extra}
		for _, q := range qs[i+1:] {
			ctrls = append(ctrls, circuit.Control{Qubit: q, Neg: true})
		}
		c.Append(circuit.Gate{Name: "x", Target: qs[i], Controls: ctrls})
	}
}
