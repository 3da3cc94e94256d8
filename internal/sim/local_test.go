package sim

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
)

// TestApplyMatchesMulOracle: the simulator's local-apply fast path lands on
// the same canonical state as the classic BuildDD+Mul pipeline (mulOracle),
// on random Clifford+T circuits. The core-level differential tests
// (core/apply_test.go) cover ApplyLocal against BuildDD+Mul per gate; this
// one covers the sim wiring — LocalGate caching, identity skipping, the
// per-gate error paths — end to end.
func TestApplyMatchesMulOracle(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 6; trial++ {
		n := 3 + r.Intn(3)
		c := randomCliffordT(r, n, 50)

		fast := New(algM(core.NormLeft), n)
		if err := fast.Run(c, nil); err != nil {
			t.Fatal(err)
		}

		mo := algM(core.NormLeft)
		want, err := newMulOracle(mo, n).run(c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		if !core.CrossEqual(fast.M, fast.State, mo, want) {
			t.Fatalf("trial %d: local apply diverged from the BuildDD+Mul oracle", trial)
		}
	}
}

// TestBuildUnitaryMatchesMulOracle: BuildUnitary's matrix-side local apply
// agrees with composing the gate diagrams by Mul.
func TestBuildUnitaryMatchesMulOracle(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	c := randomCliffordT(r, 4, 30)

	m := algM(core.NormLeft)
	u, err := BuildUnitary(m, c)
	if err != nil {
		t.Fatal(err)
	}

	mo := algM(core.NormLeft)
	o := newMulOracle(mo, c.N)
	want := mo.Identity(c.N)
	for i, g := range c.Gates {
		dd, err := o.gateDD(g)
		if err != nil {
			t.Fatalf("gate %d: %v", i, err)
		}
		want = mo.Mul(dd, want)
	}

	if !core.CrossEqual(m, u, mo, want) {
		t.Fatal("BuildUnitary diverged from the Mul-composition oracle")
	}
}

// TestIdentityGatesSkipped: gates whose base block is exactly the identity —
// rz(0), u3(0,0,0), bare or controlled — are skipped without touching the
// state diagram at all.
func TestIdentityGatesSkipped(t *testing.T) {
	m := numM(0)
	s := New(m, 2)
	if err := s.Apply(circuit.Gate{Name: "h", Target: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(circuit.Gate{Name: "x", Target: 1,
		Controls: []circuit.Control{{Qubit: 0}}}); err != nil {
		t.Fatal(err)
	}
	before := s.State
	identities := []circuit.Gate{
		{Name: "rz", Target: 0, Params: []float64{0}},
		{Name: "u3", Target: 1, Params: []float64{0, 0, 0}},
		{Name: "rz", Target: 1, Params: []float64{0},
			Controls: []circuit.Control{{Qubit: 0}}},
	}
	for _, g := range identities {
		lg, err := s.LocalGate(g)
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		if !lg.IsIdentity() {
			t.Fatalf("%s: not recognized as identity", g)
		}
		if err := s.Apply(g); err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		if s.State != before {
			t.Fatalf("%s: identity gate changed the state edge", g)
		}
	}
}
