package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"
	"unsafe"
)

// The run governor. The paper's two failure modes are resource failures:
// ε = 0 blows the diagram up exponentially (Figs. 2–4) and the algebraic
// representation trades compactness for bit-width-driven run time on GSE
// (Fig. 5). A manager that can only OOM or hang when it hits either wall is
// unusable behind a service front-end, so every node creation is metered
// against an optional Budget and long recursions poll an optional
// context.Context. A violation unwinds the op recursion with a structured
// *BudgetError (carrying the peak statistics observed so far) which the
// exported entry points of sim/bench convert into an ordinary error via
// RecoverTo.

// Budget bounds one manager's resource consumption. The zero value imposes
// no limits. All limits are checked inside MakeNode — i.e. inside every op
// recursion — so a single giant Mul is interrupted, not just a gate stream.
type Budget struct {
	// MaxNodes caps the live nodes in the unique table (garbage included;
	// pair with auto-pruning to meter reachable nodes only).
	MaxNodes int
	// MaxWeights caps the distinct interned weights — the table the
	// algebraic representation grows without bound as coefficient bit
	// widths climb.
	MaxWeights int
	// MaxBytes caps the *approximate* structural bytes of nodes plus
	// interned weights. The estimate counts struct and slice headers, not
	// big.Int limbs or allocator overhead, so treat it as a floor on real
	// memory use (see DESIGN.md §5.2).
	MaxBytes int64
	// Deadline aborts work after an absolute wall-clock instant. Checked
	// every few hundred node creations to keep the hot path clock-free.
	Deadline time.Time
}

// IsZero reports whether the budget imposes no limit at all.
func (b Budget) IsZero() bool {
	return b.MaxNodes <= 0 && b.MaxWeights <= 0 && b.MaxBytes <= 0 && b.Deadline.IsZero()
}

// PeakStats records the high-water marks a manager reached, the numbers a
// refused run reports back. Peaks are monotone over the manager's lifetime
// (a Prune lowers the live counts but not the recorded peaks); under
// garbage collection the live counts include unreachable-but-unswept nodes,
// so peaks measure table pressure, not minimal diagram size.
type PeakStats struct {
	Nodes       int           `json:"nodes"`        // peak unique-table occupancy
	Weights     int           `json:"weights"`      // peak interned-weight count
	ApproxBytes int64         `json:"approx_bytes"` // structural-byte estimate at the node/weight peaks
	Elapsed     time.Duration `json:"elapsed_ns"`   // wall-clock since SetBudget (or manager creation)
}

func (p PeakStats) String() string {
	return fmt.Sprintf("peak %d nodes, %d weights, ~%d bytes, %v elapsed",
		p.Nodes, p.Weights, p.ApproxBytes, p.Elapsed.Round(time.Millisecond))
}

// ErrBudgetExceeded is the sentinel matched by errors.Is for every budget
// violation, whichever limit tripped.
var ErrBudgetExceeded = errors.New("core: budget exceeded")

// BudgetError reports which Budget limit a run tripped and the peak
// statistics at that moment. It matches ErrBudgetExceeded under errors.Is.
type BudgetError struct {
	Limit string // "nodes", "weights", "bytes" or "deadline"
	Peak  PeakStats
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: budget exceeded (%s limit): %s", e.Limit, e.Peak)
}

// Is reports whether target is ErrBudgetExceeded.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// PanicError wraps a panic recovered at an exported API boundary — a
// malformed circuit, a non-invertible weight, a shape mismatch. The original
// panic value and the stack at recovery time are preserved for diagnosis.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// RecoverTo converts an in-flight panic into *err; use it as
//
//	defer core.RecoverTo(&err)
//
// at exported entry points. Structured errors thrown by the governor
// (*BudgetError, context errors) pass through unchanged; anything else —
// including runtime errors from malformed inputs — is wrapped in a
// *PanicError so no panic escapes the API. Goexit (from t.Fatal etc.) is
// not intercepted.
func RecoverTo(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if e, ok := r.(error); ok {
		var be *BudgetError
		if errors.As(e, &be) || errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded) {
			*err = e
			return
		}
	}
	*err = &PanicError{Value: r, Stack: debug.Stack()}
}

// budgetCheckStride throttles the clock reads and context polls in
// checkBudgetSlow: count-based limits are checked on every node/weight
// insertion, time and cancellation every stride insertions.
const budgetCheckStride = 256

// SetBudget installs (or, with the zero Budget, clears) the manager's
// resource budget and restarts the peak-statistics clock. Limits take
// effect on the next node or weight creation.
func (m *Manager[T]) SetBudget(b Budget) {
	m.budget = b
	m.budgetStart = time.Now()
	m.budgetTick = 0
}

// Budget returns the currently installed budget.
func (m *Manager[T]) Budget() Budget { return m.budget }

// SetContext registers a context polled cooperatively inside MakeNode (every
// few hundred node creations), so cancelling it interrupts even a single
// long-running operation. Pass nil to deregister. The cancellation surfaces
// as a panic carrying ctx.Err(), converted to an error by RecoverTo at the
// exported entry points.
func (m *Manager[T]) SetContext(ctx context.Context) { m.ctx = ctx }

// Peak returns the high-water marks observed so far.
func (m *Manager[T]) Peak() PeakStats {
	return PeakStats{
		Nodes:       int(m.peakNodes),
		Weights:     int(m.peakWeights),
		ApproxBytes: m.approxBytes(),
		Elapsed:     time.Since(m.budgetStart),
	}
}

// approxBytes estimates the structural bytes held by the peak node and
// weight populations: struct sizes, edge slices and one table slot each.
// Heap-indirect weight internals (big.Int limbs) are not counted.
func (m *Manager[T]) approxBytes() int64 {
	var n Node[T]
	var e Edge[T]
	nodeBytes := int64(unsafe.Sizeof(n)) + MatrixArity*int64(unsafe.Sizeof(e)) + 8
	weightBytes := int64(unsafe.Sizeof(e.W)) + 8 + 4 // weight + cached hash + slot
	return m.peakNodes*nodeBytes + m.peakWeights*weightBytes
}

// noteNode records a new unique-table node and enforces the budget against
// the live-node counter. Called only on the miss path of internNode, so the
// hot hit path stays check-free.
func (m *Manager[T]) noteNode() {
	m.totalNodes++
	m.peakNodes = max(m.peakNodes, m.totalNodes)
	if b := &m.budget; b.MaxNodes > 0 && m.totalNodes > int64(b.MaxNodes) {
		panic(&BudgetError{Limit: "nodes", Peak: m.Peak()})
	}
	m.checkBudgetSlow()
}

// noteWeight records a new interned weight and enforces the budget.
func (m *Manager[T]) noteWeight() {
	m.totalWeights++
	m.peakWeights = max(m.peakWeights, m.totalWeights)
	if b := &m.budget; b.MaxWeights > 0 && m.totalWeights > int64(b.MaxWeights) {
		panic(&BudgetError{Limit: "weights", Peak: m.Peak()})
	}
}

// checkBudgetSlow performs the throttled checks: the byte estimate, the
// wall-clock deadline and the registered context.
func (m *Manager[T]) checkBudgetSlow() {
	m.budgetTick++
	if m.budgetTick%budgetCheckStride != 0 {
		return
	}
	if b := &m.budget; b.MaxBytes > 0 && m.approxBytes() > b.MaxBytes {
		panic(&BudgetError{Limit: "bytes", Peak: m.Peak()})
	}
	if b := &m.budget; !b.Deadline.IsZero() && time.Now().After(b.Deadline) {
		panic(&BudgetError{Limit: "deadline", Peak: m.Peak()})
	}
	if m.ctx != nil {
		if err := m.ctx.Err(); err != nil {
			panic(err)
		}
	}
}
