// Package sim drives QMDD-based simulation of quantum circuits: it applies
// each gate to a state diagram (or to the accumulating circuit unitary)
// through the identity-skipping local path, core.ApplyLocal, and records the
// per-gate statistics the paper plots — diagram size, run time, and
// coefficient bit widths.
package sim

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gates"
)

// Simulator evolves one n-qubit state under a stream of gates.
type Simulator[T any] struct {
	M     *core.Manager[T]
	N     int
	State core.Edge[T]

	localCache map[string]*core.LocalGate[T]
	// pruneHighWater is the active auto-prune watermark; the thrash guard
	// may raise it during a run. pruneConfigured remembers the caller's
	// setting so Reset can restore it — guard inflation is run-local, never
	// a property of the simulator's next circuit.
	pruneHighWater  int
	pruneConfigured int
	// approxPolicy is the configured fidelity-bounded degradation policy
	// (approx.go); approxState is the run-local accounting it maintains.
	approxPolicy ApproxPolicy
	approxState  ApproxState
}

// EnableAutoPrune garbage-collects the manager whenever its unique table
// exceeds highWater nodes after a gate application, keeping the current
// state alive. Pass 0 to disable (the default).
// When a prune reclaims less than 10% of the table — the live working set
// itself has outgrown the watermark — the watermark is raised to twice the
// live size, so a saturated table costs one cheap comparison per gate
// instead of a full O(live) sweep (see the thrash-guard test). The raise
// lasts until the end of the run: Reset restores this configured value.
func (s *Simulator[T]) EnableAutoPrune(highWater int) {
	s.pruneHighWater = highWater
	s.pruneConfigured = highWater
}

// ctxCheckEvery is the gate-application period of the cooperative
// context poll in RunCtx.
const ctxCheckEvery = 8

// New returns a simulator initialized to |0…0⟩. The n+1-node basis state is
// built with the budget suspended: under a budget too small for any state the
// refusal belongs to the first gate application, where it surfaces as an
// error, not as a constructor panic.
func New[T any](m *core.Manager[T], n int) *Simulator[T] {
	defer m.SetBudget(m.Budget())
	m.SetBudget(core.Budget{})
	return &Simulator[T]{
		M:           m,
		N:           n,
		State:       m.BasisState(n, 0),
		localCache:  make(map[string]*core.LocalGate[T]),
		approxState: freshApproxState(),
	}
}

// Reset returns the state to |0…0⟩ (budget-exempt, as in New) and restores
// the simulator's run-local policy state: the auto-prune watermark goes
// back to its configured value (a thrash-guard raise from a previous
// table-saturating run must not leave the reused simulator effectively
// prune-free), the approximation accounting is cleared (the policy itself
// persists, like the configured watermark). The manager's tables are left
// as-is — the next prune sweeps the previous run's state. The local-gate
// cache is kept: prepared local gates store ring values, never diagram
// edges, so they pin nothing and stay valid across Prune and Reset alike.
func (s *Simulator[T]) Reset() {
	defer s.M.SetBudget(s.M.Budget())
	s.M.SetBudget(core.Budget{})
	s.pruneHighWater = s.pruneConfigured
	s.approxState = freshApproxState()
	s.State = s.M.BasisState(s.N, 0)
}

// baseFor resolves the 2×2 base matrix of a gate in the manager's ring.
func baseFor[T any](m *core.Manager[T], g circuit.Gate) ([2][2]T, error) {
	if ex, ok := gates.Exact(g.Name); ok {
		return gates.BaseFor(m, ex), nil
	}
	u, err := gates.Numeric(g.Name, g.Params)
	if err != nil {
		return [2][2]T{}, err
	}
	var out [2][2]T
	for i := range u {
		for j := range u[i] {
			v, ok := m.R.FromComplex(u[i][j])
			if !ok {
				return out, fmt.Errorf(
					"sim: gate %q is not exactly representable in this ring; compile it to Clifford+T first (internal/synth)",
					g.Name)
			}
			out[i][j] = v
		}
	}
	return out, nil
}

func gateKey(g circuit.Gate, n int) string {
	var sb strings.Builder
	sb.WriteString(g.Name)
	sb.WriteByte('/')
	sb.WriteString(strconv.Itoa(n))
	sb.WriteByte('/')
	sb.WriteString(strconv.Itoa(g.Target))
	for _, c := range g.Controls {
		sb.WriteByte(',')
		if c.Neg {
			sb.WriteByte('!')
		}
		sb.WriteString(strconv.Itoa(c.Qubit))
	}
	for _, p := range g.Params {
		sb.WriteByte(';')
		sb.WriteString(strconv.FormatFloat(p, 'x', -1, 64))
	}
	return sb.String()
}

// LocalGate returns (and caches) the identity-skipping local form of a gate,
// ready for core.ApplyLocal. Prepared local gates hold ring values only —
// they are not prune roots and never expire.
func (s *Simulator[T]) LocalGate(g circuit.Gate) (lg *core.LocalGate[T], err error) {
	key := gateKey(g, s.N)
	if lg, ok := s.localCache[key]; ok {
		return lg, nil
	}
	defer core.RecoverTo(&err)
	base, err := baseFor(s.M, g)
	if err != nil {
		return nil, err
	}
	ctrls := make([]gates.Control, len(g.Controls))
	for i, c := range g.Controls {
		ctrls[i] = gates.Control{Qubit: c.Qubit, Neg: c.Neg}
	}
	lg = gates.Local(s.M, s.N, base, g.Target, ctrls)
	s.localCache[key] = lg
	return lg, nil
}

// Apply evolves the state by one gate via the identity-skipping local path
// (core.ApplyLocal): no n-level gate diagram is built and levels the gate
// does not touch cost nothing. Gates whose base block is exactly the ring
// identity — rz(0), u3(0,0,0), controlled or not — are skipped outright.
// Panics from the diagram core — budget violations, malformed circuits,
// non-invertible weights — are converted to errors; on error the state is
// left at its pre-gate value.
func (s *Simulator[T]) Apply(g circuit.Gate) (err error) {
	defer core.RecoverTo(&err)
	lg, err := s.LocalGate(g)
	if err != nil {
		return err
	}
	if lg.IsIdentity() {
		return nil
	}
	prev := s.State
	s.State = s.M.ApplyLocal(lg, s.State)
	if err := s.maybePrune(); err != nil {
		s.State = prev
		return err
	}
	return nil
}

// maybePrune runs the auto-prune policy with the thrash guard: when the
// last prune reclaimed less than 10% of the table, the watermark is raised
// to twice the surviving live size so near-useless full sweeps stop. With an
// approximation policy installed, a saturated table first gets one shed
// attempt — the live state itself is the thing that outgrew the watermark,
// and dropping its low-contribution tail may keep the configured watermark
// honest instead of inflating it.
func (s *Simulator[T]) maybePrune() (err error) {
	defer core.RecoverTo(&err)
	if s.pruneHighWater <= 0 {
		return nil
	}
	before := s.M.Stats().UniqueNodes
	if before <= s.pruneHighWater {
		return nil
	}
	removed := s.pruneNow()
	if removed*10 < before {
		if s.shedLoad(false) {
			if live := s.M.Stats().UniqueNodes; live <= s.pruneHighWater {
				return nil
			}
		}
		live := s.M.Stats().UniqueNodes
		s.pruneHighWater = 2 * live
	}
	return nil
}

// Run applies a whole circuit, invoking hook (if non-nil) after every gate.
// The hook receives the 0-based index of the gate just applied; returning
// false stops the run early (Run then returns ErrStopped).
func (s *Simulator[T]) Run(c *circuit.Circuit, hook func(i int, g circuit.Gate) bool) error {
	return s.RunCtx(context.Background(), c, hook)
}

// RunCtx is Run under a context: cancellation is polled cooperatively every
// few gate applications — and, via the manager, inside long-running
// individual operations — so both a slow gate stream and one giant Mul are
// interruptible. On cancellation the context error is returned and the
// state remains at the last completed gate, so partial statistics stay
// readable. Deadlines carried by ctx are installed into the manager budget
// for the duration of the run.
func (s *Simulator[T]) RunCtx(ctx context.Context, c *circuit.Circuit, hook func(i int, g circuit.Gate) bool) error {
	return s.RunFromCtx(ctx, c, 0, hook)
}

// RunFromCtx is the warm-start entry point: it applies c.Gates[from:],
// assuming s.State already holds the state reached by the first `from`
// gates — typically restored from a prefix checkpoint (internal/prefix)
// keyed by the circuit's chain link H_from. With from = 0 it is exactly
// RunCtx. The hook still receives the original gate indices, so checkpoint
// policies see the same positions a cold run would.
func (s *Simulator[T]) RunFromCtx(ctx context.Context, c *circuit.Circuit, from int, hook func(i int, g circuit.Gate) bool) error {
	if c.N != s.N {
		return fmt.Errorf("sim: circuit has %d qubits, simulator has %d", c.N, s.N)
	}
	if from < 0 || from > len(c.Gates) {
		return fmt.Errorf("sim: warm start at gate %d of %d", from, len(c.Gates))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Unconditional install: the manager polls ctx inside long op recursions.
	// The previous `ctx != context.Background()` pointer-identity test was a
	// landmine — any wrapper that compares equal to the background context
	// silently lost in-recursion cancellation. Installing the background
	// context costs one nil-error read per few hundred node creations.
	s.M.SetContext(ctx)
	defer s.M.SetContext(nil)
	ctxOwnsDeadline := false
	if dl, ok := ctx.Deadline(); ok {
		b := s.M.Budget()
		if b.Deadline.IsZero() || dl.Before(b.Deadline) {
			defer s.M.SetBudget(s.M.Budget())
			b.Deadline = dl
			s.M.SetBudget(b)
			ctxOwnsDeadline = true
		}
	}
	for i := from; i < len(c.Gates); i++ {
		g := c.Gates[i]
		if (i-from)%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: cancelled before gate %d: %w", i, err)
			}
		}
		if err := s.applyWithFallback(g); err != nil {
			// A deadline carried by ctx trips inside the manager as a budget
			// error; report it as the cancellation it is, so callers see one
			// error shape for "the context ended this run". The explicit
			// ctxOwnsDeadline test covers the instants where the budget clock
			// has passed the deadline but ctx's timer has not yet fired.
			if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, core.ErrBudgetExceeded) {
				return fmt.Errorf("sim: cancelled at gate %d: %w", i, ctxErr)
			}
			var be *core.BudgetError
			if ctxOwnsDeadline && errors.As(err, &be) && be.Limit == "deadline" {
				return fmt.Errorf("sim: cancelled at gate %d: %w", i, context.DeadlineExceeded)
			}
			return fmt.Errorf("sim: gate %d (%s): %w", i, g, err)
		}
		if hook != nil && !hook(i, g) {
			return ErrStopped
		}
	}
	return nil
}

// ErrStopped is returned by Run when the per-gate hook requested an early
// stop.
var ErrStopped = fmt.Errorf("sim: stopped by hook")

// Governed reports whether err is a run-governor outcome — budget exceeded,
// deadline passed, or cancellation — rather than a genuine failure. Front
// ends (the CLIs, the qmddd daemon) use it to report a refused or
// interrupted run gracefully, with partial statistics, instead of treating
// it as an internal error.
func Governed(err error) bool {
	return errors.Is(err, core.ErrBudgetExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// BuildUnitary computes the full circuit unitary (gates applied in order,
// i.e. U = G_k ··· G_1). Each gate is applied to the accumulating matrix
// diagram through the identity-skipping local path — ApplyLocal acting on
// the row space is exactly Mul(BuildDD(...), u) without ever materializing
// the n-level gate diagram — and exact-identity gates are skipped. Core
// panics (budget violations, malformed circuits) surface as errors.
func BuildUnitary[T any](m *core.Manager[T], c *circuit.Circuit) (u core.Edge[T], err error) {
	defer core.RecoverTo(&err)
	s := New(m, c.N)
	u = m.Identity(c.N)
	for i, g := range c.Gates {
		lg, err := s.LocalGate(g)
		if err != nil {
			return core.Edge[T]{}, fmt.Errorf("sim: gate %d (%s): %w", i, g, err)
		}
		if lg.IsIdentity() {
			continue
		}
		u = m.ApplyLocal(lg, u)
	}
	return u, nil
}

// Equivalent checks two circuits for exact functional equivalence by
// building both unitaries and comparing root edges — the O(1) comparison the
// paper highlights as a payoff of canonical exact diagrams.
func Equivalent[T any](m *core.Manager[T], a, b *circuit.Circuit) (eq bool, err error) {
	defer core.RecoverTo(&err)
	if a.N != b.N {
		return false, nil
	}
	ua, err := BuildUnitary(m, a)
	if err != nil {
		return false, err
	}
	ub, err := BuildUnitary(m, b)
	if err != nil {
		return false, err
	}
	return m.RootsEqual(ua, ub), nil
}

// EquivalentUpToPhase is Equivalent modulo a global phase — the relation
// that matters physically (e.g. a circuit compiled via Rz-based phase gates
// differs from its P-gate original by exactly a global phase).
func EquivalentUpToPhase[T any](m *core.Manager[T], a, b *circuit.Circuit) (eq bool, err error) {
	defer core.RecoverTo(&err)
	if a.N != b.N {
		return false, nil
	}
	ua, err := BuildUnitary(m, a)
	if err != nil {
		return false, err
	}
	ub, err := BuildUnitary(m, b)
	if err != nil {
		return false, err
	}
	return m.RootsEqualUpToPhase(ua, ub), nil
}
