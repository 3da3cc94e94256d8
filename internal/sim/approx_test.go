package sim

import (
	"context"
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
)

// clutterCircuit builds a circuit whose state keeps a dominant |0…0⟩ branch
// plus a generic low-mass tail: layers of small-angle ry rotations entangled
// by a CX chain. The tail fills the diagram toward its worst case while the
// fidelity cost of shedding it stays tiny — the shape approximation exists
// for.
func clutterCircuit(n, layers int, seed int64) *circuit.Circuit {
	r := rand.New(rand.NewSource(seed))
	c := circuit.New("clutter", n)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.Append(circuit.Gate{Name: "ry", Target: q, Params: []float64{0.02 + 0.02*r.Float64()}})
		}
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
		}
	}
	return c
}

func denseFid(u, v []complex128) float64 {
	var ip complex128
	var nu, nv float64
	for i := range u {
		ip += cmplx.Conj(u[i]) * v[i]
		nu += real(u[i])*real(u[i]) + imag(u[i])*imag(u[i])
		nv += real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
	}
	if nu == 0 || nv == 0 {
		return 0
	}
	a := cmplx.Abs(ip)
	return a * a / (nu * nv)
}

func stateVec(m *core.Manager[complex128], v core.Edge[complex128], n int) []complex128 {
	vals := m.ToVector(v, n)
	out := make([]complex128, len(vals))
	for i, a := range vals {
		out[i] = m.R.Complex128(a)
	}
	return out
}

// TestApproximationFlipsBudgetFailure is the graceful-degradation headline:
// a circuit that dies on ErrBudgetExceeded under a node cap completes under
// the same cap once a fidelity floor is installed, and the accounting stamps
// what was given up.
func TestApproximationFlipsBudgetFailure(t *testing.T) {
	const (
		n      = 10
		layers = 24
		floor  = 0.5
	)
	c := clutterCircuit(n, layers, 11)

	// Unbudgeted reference run: yields the ideal final state and (the table
	// being monotone without pruning) the node demand of the full run.
	ref := New(numM(0), n)
	if err := ref.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	demand := ref.M.Stats().UniqueNodes
	cap := demand / 2
	if cap < 256 {
		t.Fatalf("circuit too small to pressure a budget: demand %d", demand)
	}

	// Under the cap without a policy: structured refusal, as before.
	m := numM(0)
	m.SetBudget(core.Budget{MaxNodes: cap})
	if err := New(m, n).Run(c, nil); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("capped run without policy: err = %v, want ErrBudgetExceeded", err)
	}

	// Same cap, fidelity floor installed: the run must complete.
	m2 := numM(0)
	m2.SetBudget(core.Budget{MaxNodes: cap})
	s := New(m2, n)
	s.EnableApproximation(ApproxPolicy{MinFidelity: floor, MaxEvents: 1000})
	if err := s.Run(c, nil); err != nil {
		t.Fatalf("capped run with approximation failed: %v", err)
	}
	st := s.Approximation()
	if st.Events < 1 {
		t.Fatal("run completed without any approximation event despite the cap")
	}
	if st.Fidelity < floor || st.Fidelity > 1 {
		t.Fatalf("accounted fidelity %v outside [%v, 1]", st.Fidelity, floor)
	}
	if st.Exact {
		t.Fatal("float-ring accounting flagged exact")
	}
	// The low-mass tail is what was shed: the final state still matches the
	// ideal far above the floor.
	if f := denseFid(stateVec(ref.M, ref.State, n), stateVec(m2, s.State, n)); f < floor {
		t.Fatalf("final-state fidelity %v below floor %v", f, floor)
	}
}

// TestApproximationThrashGuardSheds: with auto-prune saturated by the live
// state itself, the thrash guard tries an approximation event before
// inflating the watermark.
func TestApproximationThrashGuardSheds(t *testing.T) {
	const n = 12
	c := clutterCircuit(n, 16, 7)
	s := New(numM(0), n)
	s.EnableAutoPrune(48)
	s.EnableApproximation(ApproxPolicy{MinFidelity: 0.5, MaxEvents: 1000})
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	st := s.Approximation()
	if st.Events < 1 {
		t.Fatal("saturated auto-prune never shed load")
	}
	if st.Fidelity < 0.5 {
		t.Fatalf("accounted fidelity %v below floor", st.Fidelity)
	}
}

// TestApproximationResetClearsAccounting: Reset starts a fresh run —
// accounting back to the identity, policy still installed.
func TestApproximationResetClearsAccounting(t *testing.T) {
	const n = 8
	c := clutterCircuit(n, 16, 3)
	m := numM(0)
	s := New(m, n)
	s.EnableAutoPrune(24)
	s.EnableApproximation(ApproxPolicy{MinFidelity: 0.6, MaxEvents: 1000})
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	if s.Approximation().Events < 1 {
		t.Skip("no approximation event fired on this instance")
	}
	s.Reset()
	if st := s.Approximation(); st != freshApproxState() {
		t.Fatalf("Reset left accounting %+v", st)
	}
	if s.approxPolicy.MinFidelity != 0.6 {
		t.Fatal("Reset dropped the installed policy")
	}
	// The policy survives: the rerun degrades gracefully again.
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
}

// expiresOnce reports an expired deadline on its first Err call only, so an
// approximation the fallback might wrongly start would not itself be cut
// short, and a retried gate would succeed.
type expiresOnce struct {
	context.Context
	fired bool
}

func (c *expiresOnce) Err() error {
	if c.fired {
		return nil
	}
	c.fired = true
	return context.DeadlineExceeded
}

// TestApproximationDeadlineNotAbsorbed: a deadline trip is a cancellation,
// not memory pressure — the fallback must not eat it. The gate goes straight
// to applyWithFallback: RunCtx's own poll before gate 0 would return before
// the fallback is reached.
func TestApproximationDeadlineNotAbsorbed(t *testing.T) {
	s, g := denseSim(&expiresOnce{Context: context.Background()}, 10)
	s.EnableApproximation(ApproxPolicy{MinFidelity: 0.5})
	err := s.applyWithFallback(g)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if st := s.Approximation(); st.Events != 0 {
		t.Fatalf("deadline trip triggered %d approximation events", st.Events)
	}
}

// TestApproximationMathErrorsPassThrough: a non-budget failure (here a gate
// the ring cannot represent) is returned untouched even with a policy on.
func TestApproximationMathErrorsPassThrough(t *testing.T) {
	s := New(algM(core.NormLeft), 2)
	s.EnableApproximation(ApproxPolicy{MinFidelity: 0.5})
	c := circuit.New("bad", 2)
	c.Append(circuit.Gate{Name: "ry", Target: 0, Params: []float64{0.1234}})
	err := s.Run(c, nil)
	if err == nil || errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("irrational gate in the exact ring: err = %v", err)
	}
	if st := s.Approximation(); st.Events != 0 {
		t.Fatal("math error triggered an approximation event")
	}
}
