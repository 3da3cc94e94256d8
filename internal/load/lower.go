// Package load is the qload SLO harness: a portable-OpenQASM lowering pass
// for the paper's workload circuits, a mixed workload catalog with zipf
// repeat structure, and an open-loop (fixed-arrival-rate) runner that
// measures serving latency percentiles against a declared SLO.
package load

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/qasm"
)

// Lower rewrites a circuit into the gate set OpenQASM 2.0 (qelib1) can
// spell, so the paper's workload circuits — which use arbitrary-arity and
// negative controls — can travel over the wire to a qmddd worker. The
// rewrite is exact in every number representation (it never introduces a
// rotation angle that was not already there):
//
//   - negative controls become X-sandwiches around the positively
//     controlled gate;
//   - a multi-controlled X becomes the standard ccx v-chain over clean
//     ancilla qubits, uncomputed afterwards;
//   - a multi-controlled Z becomes an H-sandwich on the target around the
//     multi-controlled X (Z = H·X·H);
//   - a controlled phase-type gate (s, sdg, t, tdg, p) of any arity ANDs
//     its controls and its target into an ancilla and applies the plain
//     gate there: diag(1, e^{iθ}) fires exactly on the all-ones subspace,
//     so the ancilla trick is an equality, not an approximation — and a
//     bare t stays exactly representable in Q[ω], where a cu1(π/4)
//     spelling would not be;
//   - a multi-controlled y or h ANDs its controls into an ancilla and
//     applies the single-controlled (cy/ch) form.
//
// Ancillas are appended after the original qubits (indices ≥ c.N) and are
// returned to |0⟩ by every lowered gate, so with qubit 0 the most
// significant index bit the original amplitude ⟨i|ψ⟩ equals the lowered
// circuit's amplitude at index i·2^a: the simulated state is the original
// one, padded. One shared ancilla block serves all gates (each gate
// uncomputes before the next computes).
//
// Circuits that are already expressible are returned unchanged (same
// pointer). Classical conditions are propagated onto every emitted gate of
// a lowered op, preserving all-or-nothing firing.
func Lower(c *circuit.Circuit) (*circuit.Circuit, error) {
	ancillas, changed := 0, false
	for _, g := range c.Gates {
		if !qasm.Expressible(g) {
			changed = true
		}
		if n := ancillasFor(g); n > ancillas {
			ancillas = n
		}
	}
	if !changed {
		return c, nil
	}
	out := circuit.New(c.Name, c.N+ancillas)
	out.Cbits = c.Cbits
	for i, g := range c.Gates {
		if err := lowerGate(out, g, c.N); err != nil {
			return nil, fmt.Errorf("load: gate %d (%s): %w", i, g.String(), err)
		}
	}
	return out, nil
}

// phaseType marks the diagonal diag(1, e^{iθ}) gates, for which control and
// target are interchangeable: the phase fires on the all-ones subspace.
var phaseType = map[string]bool{"z": true, "s": true, "sdg": true, "t": true, "tdg": true, "p": true}

// ancillasFor returns the clean ancillas the lowered form of g needs.
func ancillasFor(g circuit.Gate) int {
	if qasm.Expressible(g) {
		return 0
	}
	k := len(g.Controls)
	switch {
	case g.Name == "x" || g.Name == "z":
		// v-chain over the first k−1 controls (the target of a Z is lowered
		// through the same X path).
		return max(k-2, 0)
	case phaseType[g.Name]:
		// Full AND of k controls + target: k ancillas.
		return k
	case g.Name == "y" || g.Name == "h":
		// AND of the k controls, then the single-controlled form.
		return k - 1
	}
	return 0
}

// lowerGate appends the expressible form of g to out. n is the original
// qubit count: ancillas live at indices n, n+1, ….
func lowerGate(out *circuit.Circuit, g circuit.Gate, n int) error {
	if qasm.Expressible(g) {
		out.Append(g)
		return nil
	}

	// app emits one gate carrying g's classical condition.
	app := func(name string, tgt int, ctrls []circuit.Control, params []float64) {
		out.Append(circuit.Gate{Name: name, Target: tgt, Controls: ctrls, Params: params, Cond: g.Cond})
	}
	ctl := func(q int) circuit.Control { return circuit.Control{Qubit: q} }
	ccx := func(a, b circuit.Control, tgt int) {
		app("x", tgt, []circuit.Control{a, b}, nil)
	}
	// andChain computes the conjunction of inputs (≥2) into the ancilla
	// block starting at n, using len(inputs)−1 ancillas. It returns the
	// qubit holding the AND and an uncompute closure (each ccx is its own
	// inverse, so the chain replayed in reverse is the inverse chain).
	andChain := func(inputs []circuit.Control) (int, func()) {
		type step struct {
			a, b circuit.Control
			tgt  int
		}
		chain := []step{{inputs[0], inputs[1], n}}
		for i := 2; i < len(inputs); i++ {
			chain = append(chain, step{inputs[i], ctl(n + i - 2), n + i - 1})
		}
		for _, s := range chain {
			ccx(s.a, s.b, s.tgt)
		}
		return n + len(inputs) - 2, func() {
			for i := len(chain) - 1; i >= 0; i-- {
				ccx(chain[i].a, chain[i].b, chain[i].tgt)
			}
		}
	}

	// Negative controls: X-sandwich each negated qubit so the inner gate
	// sees all-positive controls.
	pos := make([]circuit.Control, len(g.Controls))
	var negs []int
	for i, c := range g.Controls {
		pos[i] = ctl(c.Qubit)
		if c.Neg {
			negs = append(negs, c.Qubit)
		}
	}
	for _, q := range negs {
		app("x", q, nil, nil)
	}
	defer func() {
		for i := len(negs) - 1; i >= 0; i-- {
			app("x", negs[i], nil, nil)
		}
	}()

	inner := g
	inner.Controls = pos
	if qasm.Expressible(inner) {
		out.Append(inner)
		return nil
	}
	k := len(pos)

	// A multi-controlled Z is an H-sandwich on the target around the
	// multi-controlled X (Z = H·X·H) — cheaper than the generic phase
	// lowering by two ancillas.
	if inner.Name == "z" && k >= 2 {
		app("h", inner.Target, nil, nil)
		defer app("h", inner.Target, nil, nil)
		inner.Name = "x"
	}

	switch {
	case inner.Name == "x" && k >= 2:
		if k == 2 {
			out.Append(inner)
			return nil
		}
		// v-chain: AND the first k−1 controls, fire the target off the AND
		// and the last control, uncompute.
		res, undo := andChain(pos[:k-1])
		ccx(pos[k-1], ctl(res), inner.Target)
		undo()
		return nil

	case phaseType[inner.Name] && k >= 1:
		// Control and target of a diagonal phase gate are interchangeable:
		// AND all of them into an ancilla and apply the bare gate there.
		res, undo := andChain(append(pos[:k:k], ctl(inner.Target)))
		app(inner.Name, res, nil, inner.Params)
		undo()
		return nil

	case (inner.Name == "y" || inner.Name == "h") && k >= 2:
		res, undo := andChain(pos)
		app(inner.Name, inner.Target, []circuit.Control{ctl(res)}, nil)
		undo()
		return nil
	}
	return fmt.Errorf("no OpenQASM 2.0 lowering for %q with %d controls", g.Name, len(g.Controls))
}
