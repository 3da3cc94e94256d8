package sim

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gates"
)

// mulOracle is the classic gate pipeline, kept as the differential oracle
// for the local apply path: every gate becomes an n-level matrix diagram
// (gates.BuildDD), cached per gate, and is applied to the state by Mul.
type mulOracle[T any] struct {
	m     *core.Manager[T]
	n     int
	cache map[string]core.Edge[T]
}

func newMulOracle[T any](m *core.Manager[T], n int) *mulOracle[T] {
	return &mulOracle[T]{m: m, n: n, cache: make(map[string]core.Edge[T])}
}

// gateDD returns (and caches) the diagram of a gate over the oracle's n
// qubits.
func (o *mulOracle[T]) gateDD(g circuit.Gate) (dd core.Edge[T], err error) {
	defer core.RecoverTo(&err)
	key := gateKey(g, o.n)
	if dd, ok := o.cache[key]; ok {
		return dd, nil
	}
	base, err := baseFor(o.m, g)
	if err != nil {
		return core.Edge[T]{}, err
	}
	ctrls := make([]gates.Control, len(g.Controls))
	for i, c := range g.Controls {
		ctrls[i] = gates.Control{Qubit: c.Qubit, Neg: c.Neg}
	}
	dd = gates.BuildDD(o.m, o.n, base, g.Target, ctrls)
	o.cache[key] = dd
	return dd, nil
}

// run evolves |0…0⟩ through c by gate diagram and Mul.
func (o *mulOracle[T]) run(c *circuit.Circuit) (state core.Edge[T], err error) {
	defer core.RecoverTo(&err)
	state = o.m.BasisState(o.n, 0)
	for i, g := range c.Gates {
		dd, err := o.gateDD(g)
		if err != nil {
			return core.Edge[T]{}, fmt.Errorf("gate %d (%s): %w", i, g, err)
		}
		state = o.m.Mul(dd, state)
	}
	return state, nil
}
