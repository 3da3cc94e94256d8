// Package circuit provides the quantum-circuit intermediate representation
// shared by the simulator, the workload generators and the OpenQASM front
// end: a flat list of single-target gates with arbitrary (positive or
// negative) controls and optional real parameters.
package circuit

import (
	"fmt"
	"strings"
)

// Control is a control line (see gates.Control; duplicated here to keep the
// IR free of diagram dependencies).
type Control struct {
	Qubit int
	Neg   bool
}

// Reserved operation names for the non-unitary ops. Everything else in
// Gate.Name is a unitary base operation.
const (
	OpMeasure = "measure"
	OpReset   = "reset"
)

// Cond is a classical condition on a contiguous range of classical bits:
// the op fires iff bits [Offset, Offset+Width) — read as an unsigned
// little-endian integer, bit Offset least significant — equal Value. This
// is OpenQASM 2.0's `if (creg == value)` with the register flattened into
// the circuit's classical bit space.
type Cond struct {
	Offset int
	Width  int
	Value  uint64
}

// Holds reports whether the condition is satisfied by the classical state
// creg (bit i of creg = classical bit i of the circuit).
func (cd *Cond) Holds(creg uint64) bool {
	mask := ^uint64(0)
	if cd.Width < 64 {
		mask = 1<<uint(cd.Width) - 1
	}
	return (creg>>uint(cd.Offset))&mask == cd.Value
}

// Gate is one circuit operation: the named single-qubit base operation
// applied to Target under the given controls. Parametric gates carry their
// angles in Params (radians).
//
// Two reserved names carry the non-unitary ops in position: OpMeasure
// (projective measurement of Target into classical bit Clbit) and OpReset
// (measure Target and return it to |0⟩). Any op may additionally carry a
// classical condition in Cond.
type Gate struct {
	Name     string
	Target   int
	Controls []Control
	Params   []float64
	Clbit    int   // OpMeasure only: destination classical bit
	Cond     *Cond // optional classical guard
}

// IsMeasure reports whether the op is a projective measurement.
func (g Gate) IsMeasure() bool { return g.Name == OpMeasure }

// IsReset reports whether the op is a qubit reset.
func (g Gate) IsReset() bool { return g.Name == OpReset }

// IsUnitary reports whether the op is an unconditional unitary gate.
func (g Gate) IsUnitary() bool { return !g.IsMeasure() && !g.IsReset() && g.Cond == nil }

// String renders the gate in a compact human-readable form.
func (g Gate) String() string {
	var sb strings.Builder
	if g.Cond != nil {
		fmt.Fprintf(&sb, "if(c[%d:%d]==%d) ", g.Cond.Offset, g.Cond.Offset+g.Cond.Width, g.Cond.Value)
	}
	sb.WriteString(g.Name)
	if len(g.Params) > 0 {
		fmt.Fprintf(&sb, "(%v)", g.Params)
	}
	for _, c := range g.Controls {
		if c.Neg {
			fmt.Fprintf(&sb, " !c%d", c.Qubit)
		} else {
			fmt.Fprintf(&sb, " c%d", c.Qubit)
		}
	}
	fmt.Fprintf(&sb, " q%d", g.Target)
	if g.IsMeasure() {
		fmt.Fprintf(&sb, " -> c%d", g.Clbit)
	}
	return sb.String()
}

// Circuit is an ordered gate list over N qubits and Cbits classical bits.
// Cbits grows automatically as measures and conditions are appended.
type Circuit struct {
	Name  string
	N     int
	Cbits int
	Gates []Gate
}

// New returns an empty circuit over n qubits.
func New(name string, n int) *Circuit {
	if n < 1 {
		panic("circuit: need at least one qubit")
	}
	return &Circuit{Name: name, N: n}
}

// Append adds a gate, validating qubit indices.
func (c *Circuit) Append(g Gate) *Circuit {
	if g.Target < 0 || g.Target >= c.N {
		panic(fmt.Sprintf("circuit: target %d out of range [0,%d)", g.Target, c.N))
	}
	for _, ct := range g.Controls {
		if ct.Qubit < 0 || ct.Qubit >= c.N {
			panic(fmt.Sprintf("circuit: control %d out of range", ct.Qubit))
		}
		if ct.Qubit == g.Target {
			panic("circuit: control equals target")
		}
	}
	if g.IsMeasure() {
		if g.Clbit < 0 {
			panic(fmt.Sprintf("circuit: classical bit %d out of range", g.Clbit))
		}
		if len(g.Controls) > 0 || len(g.Params) > 0 {
			panic("circuit: measure takes no controls or parameters")
		}
		if g.Clbit >= c.Cbits {
			c.Cbits = g.Clbit + 1
		}
	}
	if g.IsReset() && (len(g.Controls) > 0 || len(g.Params) > 0) {
		panic("circuit: reset takes no controls or parameters")
	}
	if cd := g.Cond; cd != nil {
		if cd.Offset < 0 || cd.Width < 1 || cd.Width > 64 {
			panic(fmt.Sprintf("circuit: bad condition range [%d:%d)", cd.Offset, cd.Offset+cd.Width))
		}
		if cd.Width < 64 && cd.Value >= 1<<uint(cd.Width) {
			panic(fmt.Sprintf("circuit: condition value %d does not fit %d bit(s)", cd.Value, cd.Width))
		}
		if cd.Offset+cd.Width > c.Cbits {
			c.Cbits = cd.Offset + cd.Width
		}
	}
	c.Gates = append(c.Gates, g)
	return c
}

// Len returns the gate count.
func (c *Circuit) Len() int { return len(c.Gates) }

// Simple single-qubit gate helpers.

func (c *Circuit) add(name string, q int, ctrls []Control, params ...float64) *Circuit {
	return c.Append(Gate{Name: name, Target: q, Controls: ctrls, Params: params})
}

// H applies a Hadamard to q.
func (c *Circuit) H(q int) *Circuit { return c.add("h", q, nil) }

// X applies a NOT to q.
func (c *Circuit) X(q int) *Circuit { return c.add("x", q, nil) }

// S applies the phase gate to q.
func (c *Circuit) S(q int) *Circuit { return c.add("s", q, nil) }

// Sdg applies S† to q.
func (c *Circuit) Sdg(q int) *Circuit { return c.add("sdg", q, nil) }

// T applies the π/4 gate to q.
func (c *Circuit) T(q int) *Circuit { return c.add("t", q, nil) }

// Tdg applies T† to q.
func (c *Circuit) Tdg(q int) *Circuit { return c.add("tdg", q, nil) }

// CX applies a CNOT with control ctl and target tgt.
func (c *Circuit) CX(ctl, tgt int) *Circuit {
	return c.add("x", tgt, []Control{{Qubit: ctl}})
}

// CCX applies a Toffoli gate.
func (c *Circuit) CCX(c1, c2, tgt int) *Circuit {
	return c.add("x", tgt, []Control{{Qubit: c1}, {Qubit: c2}})
}

// MCZ applies a Z on tgt controlled on all ctrls being |1⟩.
func (c *Circuit) MCZ(ctrls []int, tgt int) *Circuit {
	cs := make([]Control, len(ctrls))
	for i, q := range ctrls {
		cs[i] = Control{Qubit: q}
	}
	return c.add("z", tgt, cs)
}

// P applies the phase rotation diag(1, e^{iθ}) to q.
func (c *Circuit) P(theta float64, q int) *Circuit { return c.add("p", q, nil, theta) }

// CP applies a controlled phase rotation.
func (c *Circuit) CP(theta float64, ctl, tgt int) *Circuit {
	return c.add("p", tgt, []Control{{Qubit: ctl}}, theta)
}

// CRz applies a controlled Rz.
func (c *Circuit) CRz(theta float64, ctl, tgt int) *Circuit {
	return c.add("rz", tgt, []Control{{Qubit: ctl}}, theta)
}

// IsUnitary reports whether the circuit contains no measure, reset or
// classically conditioned op.
func (c *Circuit) IsUnitary() bool {
	for _, g := range c.Gates {
		if !g.IsUnitary() {
			return false
		}
	}
	return true
}

// Dynamic reports whether running the circuit needs per-shot re-simulation:
// it contains a reset, a classically conditioned op, or a measurement that
// is not part of the trailing all-measure suffix. Circuits that are a
// unitary prefix plus trailing measurements are NOT dynamic — their final
// state can be built once and sampled repeatedly.
func (c *Circuit) Dynamic() bool {
	for _, g := range c.Gates {
		if g.IsReset() || g.Cond != nil {
			return true
		}
	}
	return c.TrailingMeasures() > c.firstMeasure()
}

// TrailingMeasures returns the index of the first op of the circuit's
// trailing all-measure suffix (len(Gates) when the circuit does not end in
// measurements). Gates[:TrailingMeasures()] is the part that must be
// simulated; the suffix is pure read-out.
func (c *Circuit) TrailingMeasures() int {
	t := len(c.Gates)
	for t > 0 && c.Gates[t-1].IsMeasure() && c.Gates[t-1].Cond == nil {
		t--
	}
	return t
}

// firstMeasure returns the index of the first measurement (len(Gates) when
// there is none).
func (c *Circuit) firstMeasure() int {
	for i, g := range c.Gates {
		if g.IsMeasure() {
			return i
		}
	}
	return len(c.Gates)
}

// UnitaryPrefix returns the circuit with any trailing measurement suffix
// stripped: the original circuit when there is none, otherwise a shallow
// copy sharing the prefix gate slice (capped at its length, so an append
// to the copy never writes into c's gates). It does not remove mid-circuit
// measurements — callers that need a purely unitary circuit should check
// Dynamic()/IsUnitary() first.
func (c *Circuit) UnitaryPrefix() *Circuit {
	t := c.TrailingMeasures()
	if t == len(c.Gates) {
		return c
	}
	return &Circuit{Name: c.Name, N: c.N, Cbits: c.Cbits, Gates: c.Gates[:t:t]}
}

// StripReadout returns the measure-free twin an amplitude-mode run
// simulates: the trailing read-out block and the classical register are
// dropped, so the result — and every cache/checkpoint key derived from the
// circuit — matches the circuit that never declared them. Circuits that
// are already unitary and register-free are returned unchanged.
func (c *Circuit) StripReadout() *Circuit {
	if c.Cbits == 0 && c.IsUnitary() {
		return c
	}
	p := c.UnitaryPrefix()
	return &Circuit{Name: p.Name, N: p.N, Gates: p.Gates}
}

// CountByName returns gate counts per base-operation name.
func (c *Circuit) CountByName() map[string]int {
	out := make(map[string]int)
	for _, g := range c.Gates {
		out[g.Name]++
	}
	return out
}

// Validate checks structural invariants of a circuit (duplicate controls,
// ranges); the builder enforces these, but circuits assembled from raw Gate
// values (parsers, synthesizers) can use it as a safety net.
func (c *Circuit) Validate() error {
	for i, g := range c.Gates {
		if g.Target < 0 || g.Target >= c.N {
			return fmt.Errorf("circuit: gate %d target %d out of range", i, g.Target)
		}
		seen := map[int]bool{g.Target: true}
		for _, ct := range g.Controls {
			if ct.Qubit < 0 || ct.Qubit >= c.N {
				return fmt.Errorf("circuit: gate %d control %d out of range", i, ct.Qubit)
			}
			if seen[ct.Qubit] {
				return fmt.Errorf("circuit: gate %d reuses qubit %d", i, ct.Qubit)
			}
			seen[ct.Qubit] = true
		}
		if g.IsMeasure() {
			if g.Clbit < 0 || g.Clbit >= c.Cbits {
				return fmt.Errorf("circuit: op %d classical bit %d out of range [0,%d)", i, g.Clbit, c.Cbits)
			}
			if len(g.Controls) > 0 || len(g.Params) > 0 {
				return fmt.Errorf("circuit: op %d: measure takes no controls or parameters", i)
			}
		}
		if g.IsReset() && (len(g.Controls) > 0 || len(g.Params) > 0) {
			return fmt.Errorf("circuit: op %d: reset takes no controls or parameters", i)
		}
		if cd := g.Cond; cd != nil {
			if cd.Offset < 0 || cd.Width < 1 || cd.Width > 64 || cd.Offset+cd.Width > c.Cbits {
				return fmt.Errorf("circuit: op %d condition range [%d:%d) out of range [0,%d)",
					i, cd.Offset, cd.Offset+cd.Width, c.Cbits)
			}
			if cd.Width < 64 && cd.Value >= 1<<uint(cd.Width) {
				return fmt.Errorf("circuit: op %d condition value %d does not fit %d bit(s)", i, cd.Value, cd.Width)
			}
		}
	}
	return nil
}
