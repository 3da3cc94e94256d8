package core_test

import (
	"testing"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sim"
)

// collidingRing is Q[ω] with a constant Hash: every scalar-table lookup of
// an operation lands in the same slot with the same key hashes, so only the
// Ring.Equal verification of both operands can tell entries apart.
type collidingRing struct{ alg.Ring }

func (collidingRing) Hash(alg.Q) uint64 { return 42 }

// TestScalarTableCollisionsStayExact: with every lookup colliding, Grover-5
// and a small welded-tree walk still produce root edges identical to a
// plain Q[ω] manager's — structurally, with equal weights, and with the
// same node and table counts.
func TestScalarTableCollisionsStayExact(t *testing.T) {
	for _, c := range []*circuit.Circuit{algorithms.Grover(5, 19, 0), algorithms.BWT(3, 12)} {
		plain := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
		colliding := core.NewManager[alg.Q](collidingRing{}, core.NormLeft)
		want, got := sim.New(plain, c.N), sim.New(colliding, c.N)
		if err := want.Run(c, nil); err != nil {
			t.Fatal(err)
		}
		if err := got.Run(c, nil); err != nil {
			t.Fatal(err)
		}
		if !core.CrossEqual(plain, want.State, colliding, got.State) {
			t.Fatalf("%s: colliding scalar table changed the final state", c.Name)
		}
		sp, sc := plain.Stats(), colliding.Stats()
		if sp.UniqueNodes != sc.UniqueNodes || sp.UniqueLookups != sc.UniqueLookups || sp.CTLookups != sc.CTLookups {
			t.Fatalf("%s: diagram work differs: plain %+v, colliding %+v", c.Name, sp, sc)
		}
		if sc.ScalarLookups != sp.ScalarLookups || sc.ScalarLookups == 0 {
			t.Fatalf("%s: scalar lookups plain %d, colliding %d", c.Name, sp.ScalarLookups, sc.ScalarLookups)
		}
		if sc.ScalarHits >= sp.ScalarHits {
			t.Fatalf("%s: colliding table hit %d times, plain %d: collisions were not exercised",
				c.Name, sc.ScalarHits, sp.ScalarHits)
		}
	}
}
