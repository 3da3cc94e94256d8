package sim

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/core"
)

// TestGroverOneNodeBudget is the headline governor scenario: a Grover run
// under a one-node budget must come back as a structured ErrBudgetExceeded
// carrying peak statistics — not a panic, not an OOM.
func TestGroverOneNodeBudget(t *testing.T) {
	m := numM(0)
	m.SetBudget(core.Budget{MaxNodes: 1})
	s := New(m, 6)
	err := s.Run(algorithms.Grover(6, 13, 0), nil)
	if err == nil {
		t.Fatal("run under a 1-node budget succeeded")
	}
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *core.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error does not carry *core.BudgetError: %v", err)
	}
	if be.Limit != "nodes" {
		t.Fatalf("limit = %q, want nodes", be.Limit)
	}
	if be.Peak.Nodes < 2 {
		t.Fatalf("peak stats missing: %+v", be.Peak)
	}
	if be.Peak.ApproxBytes <= 0 {
		t.Fatalf("peak bytes not estimated: %+v", be.Peak)
	}
}

// TestBudgetTripsMidOperation: the budget is enforced inside the op
// recursion (every MakeNode), so a single oversized Mul is interrupted
// rather than completing and tripping afterwards.
func TestBudgetTripsMidOperation(t *testing.T) {
	m := numM(0)
	s := New(m, 8)
	c := algorithms.Grover(8, 200, 0)
	// Let one gate through unbudgeted, then cap below the current table
	// size: the very next Apply must fail inside its Mul.
	if err := s.Apply(c.Gates[0]); err != nil {
		t.Fatal(err)
	}
	m.SetBudget(core.Budget{MaxNodes: m.Stats().UniqueNodes})
	var gateErr error
	for _, g := range c.Gates[1:] {
		if gateErr = s.Apply(g); gateErr != nil {
			break
		}
	}
	if !errors.Is(gateErr, core.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded mid-run, got %v", gateErr)
	}
}

// TestApplyRestoresStateOnBudgetError: a refused gate leaves the simulator
// at its pre-gate state, so partial results remain readable.
func TestApplyRestoresStateOnBudgetError(t *testing.T) {
	m := numM(0)
	s := New(m, 6)
	c := algorithms.Grover(6, 13, 0)
	for i := 0; i < 4; i++ {
		if err := s.Apply(c.Gates[i]); err != nil {
			t.Fatal(err)
		}
	}
	prev := s.State
	m.SetBudget(core.Budget{MaxNodes: m.Stats().UniqueNodes})
	var tripped bool
	for _, g := range c.Gates[4:] {
		if err := s.Apply(g); err != nil {
			if !errors.Is(err, core.ErrBudgetExceeded) {
				t.Fatalf("unexpected error: %v", err)
			}
			tripped = true
			break
		}
		prev = s.State
	}
	if !tripped {
		t.Skip("budget never tripped on this instance")
	}
	if s.State != prev {
		t.Fatalf("state not restored after refused gate")
	}
}

// denseSim returns a simulator holding a random dense n-qubit state whose
// manager polls ctx, plus a gate whose application creates far more nodes
// than the poll's stride, so the poll inside the operation is reached.
func denseSim(ctx context.Context, n int) (*Simulator[complex128], circuit.Gate) {
	m := numM(0)
	r := rand.New(rand.NewSource(9))
	amps := make([]complex128, 1<<n)
	for i := range amps {
		amps[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	s := New(m, n)
	s.State = m.FromVector(amps)
	m.SetContext(ctx)
	return s, circuit.Gate{Name: "h", Target: 0}
}

// TestBudgetDeadlineTrips: an expired context deadline stops a single gate
// application through the manager's throttled in-operation poll, and the
// state stays at its pre-gate value.
func TestBudgetDeadlineTrips(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	s, g := denseSim(ctx, 10)
	prev := s.State
	err := s.Apply(g)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("deadline reported as a budget failure: %v", err)
	}
	if s.State != prev {
		t.Fatal("state changed by the interrupted gate")
	}
}

// TestRunCtxCancelMidRun: cancelling the context between gates stops the run
// with the context error; the state stays at the last completed gate.
func TestRunCtxCancelMidRun(t *testing.T) {
	m := numM(0)
	s := New(m, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	applied := 0
	err := s.RunCtx(ctx, algorithms.Grover(8, 77, 0), func(i int, g circuit.Gate) bool {
		applied = i + 1
		if i == 10 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if applied < 11 {
		t.Fatalf("cancelled too early: %d gates applied", applied)
	}
	if s.State.N == nil || s.State.NodeCount() < 1 {
		t.Fatal("partial state unreadable after cancellation")
	}
}

// TestRunCtxDeadline: a run whose context deadline passes ends with
// context.DeadlineExceeded, never a budget error.
func TestRunCtxDeadline(t *testing.T) {
	m := numM(0)
	s := New(m, 10)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := s.RunCtx(ctx, algorithms.Grover(10, 500, 0), nil)
	if !errors.Is(err, context.DeadlineExceeded) || !Governed(err) {
		t.Fatalf("want a governed context.DeadlineExceeded, got %v", err)
	}
}

// TestMalformedGatePanicsBecomeErrors: gate construction bugs that panic in
// the diagram core — out-of-range target, control equal to target — come
// back as *core.PanicError from Apply, never as a raw panic.
func TestMalformedGatePanicsBecomeErrors(t *testing.T) {
	bad := []circuit.Gate{
		{Name: "x", Target: 9},
		{Name: "x", Target: -1},
		{Name: "x", Target: 0, Controls: []circuit.Control{{Qubit: 0}}},
		{Name: "x", Target: 0, Controls: []circuit.Control{{Qubit: 7}}},
	}
	for _, g := range bad {
		m := numM(0)
		s := New(m, 3)
		err := s.Apply(g) // must not panic
		if err == nil {
			t.Fatalf("malformed gate %v accepted", g)
		}
		var pe *core.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("gate %v: want *core.PanicError, got %v", g, err)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("gate %v: panic stack not captured", g)
		}
	}
}

// TestNoPanicEscapesExportedAPIs sweeps the exported sim entry points with
// malformed circuits; any escaped panic fails the test by crashing it.
func TestNoPanicEscapesExportedAPIs(t *testing.T) {
	bad := circuit.New("bad", 3)
	bad.Gates = append(bad.Gates, circuit.Gate{Name: "x", Target: 5})
	good := circuit.New("good", 3)
	good.H(0)

	m := numM(0)
	if err := New(m, 3).Run(bad, nil); err == nil {
		t.Fatal("Run accepted a malformed circuit")
	}
	if _, err := BuildUnitary(numM(0), bad); err == nil {
		t.Fatal("BuildUnitary accepted a malformed circuit")
	}
	if _, err := Equivalent(numM(0), good, bad); err == nil {
		t.Fatal("Equivalent accepted a malformed circuit")
	}
	if _, err := EquivalentUpToPhase(numM(0), good, bad); err == nil {
		t.Fatal("EquivalentUpToPhase accepted a malformed circuit")
	}
}

// TestAutoPruneThrashGuard is the regression test for the prune-thrash bug:
// when the live working set outgrows the watermark, the old policy swept the
// full table after every gate while reclaiming almost nothing. The guard
// raises the watermark to twice the live size whenever a sweep reclaims
// under 10%, so the number of prunes stays far below the gate count. The
// near-useless-sweep regime needs a table dominated by live nodes: a wide
// random state is built first, and then gates on qubit 0 (the top level)
// each replace only the root node.
func TestAutoPruneThrashGuard(t *testing.T) {
	const n = 12
	m := numM(0)
	s := New(m, n)
	if err := s.Run(randomCliffordT(rand.New(rand.NewSource(5)), n, 300), nil); err != nil {
		t.Fatal(err)
	}
	m.Prune(s.State)
	if live := m.Stats().UniqueNodes; live < 100 {
		t.Fatalf("precondition: the live state has only %d nodes", live)
	}
	c := circuit.New("flips", n)
	for i := 0; i < 16; i++ {
		c.X(0)
	}
	s.EnableAutoPrune(4) // far below the live working set from the start
	before := m.Stats().Prunes
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	prunes := m.Stats().Prunes - before
	if prunes == 0 {
		t.Fatal("auto-prune never ran; watermark not exercised")
	}
	// Without the guard every one of the gates past the watermark sweeps
	// the table (one prune per gate). With it the watermark doubles after
	// each near-useless sweep, so the count is logarithmic in the final size.
	if int(prunes) > 6 {
		t.Fatalf("thrash guard ineffective: %d prunes over %d gates", prunes, c.Len())
	}
}
