package sim_test

import (
	"testing"

	"repro/internal/alg"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestLocalApplyMatchesMulOracleOnFigures: the paper's default fig3 Grover,
// fig4 BWT and fig5 GSE circuits reach the same canonical exact state
// through the simulator's local apply path and through the BuildDD+Mul
// oracle.
func TestLocalApplyMatchesMulOracleOnFigures(t *testing.T) {
	p := bench.DefaultParams()
	for _, w := range []struct {
		name  string
		build func() (*circuit.Circuit, error)
	}{
		{"fig3-grover", func() (*circuit.Circuit, error) { return bench.GroverCircuit(p), nil }},
		{"fig4-bwt", func() (*circuit.Circuit, error) { return bench.BWTCircuit(p), nil }},
		{"fig5-gse", func() (*circuit.Circuit, error) { return bench.GSECircuit(p) }},
	} {
		t.Run(w.name, func(t *testing.T) {
			if w.name == "fig5-gse" && testing.Short() {
				t.Skip("GSE compilation and simulation are slow; skipped under -short")
			}
			c, err := w.build()
			if err != nil {
				t.Fatal(err)
			}
			m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
			s := sim.New(m, c.N)
			if err := s.Run(c, nil); err != nil {
				t.Fatal(err)
			}
			mo := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
			want, err := sim.MulOracleState(mo, c)
			if err != nil {
				t.Fatal(err)
			}
			if !core.CrossEqual(m, s.State, mo, want) {
				t.Fatalf("%s: local apply diverged from the BuildDD+Mul oracle (%d gates)", w.name, c.Len())
			}
		})
	}
}
