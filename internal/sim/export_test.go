package sim

import (
	"repro/internal/circuit"
	"repro/internal/core"
)

// MulOracleState exposes the BuildDD+Mul oracle to the external test
// package, whose tests build workloads with packages that import sim.
func MulOracleState[T any](m *core.Manager[T], c *circuit.Circuit) (core.Edge[T], error) {
	return newMulOracle(m, c.N).run(c)
}
