package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/alg"
)

// localH builds an n-qubit Hadamard LocalGate at the given target level.
func localH[T any](m *Manager[T], target int, ctrls []LocalControl) *LocalGate[T] {
	inv, _ := m.R.FromComplex(complex(1/1.4142135623730951, 0))
	if _, isQ := any(m.R).(alg.Ring); isQ {
		inv = m.R.FromQ(alg.QInvSqrt2)
	}
	base := [2][2]T{{inv, inv}, {inv, m.R.Neg(inv)}}
	return m.PrepareLocal(base, target, ctrls)
}

// buildWalk drives a deterministic pseudo-random sequence of Add and
// ApplyLocal calls over a 12-qubit state and returns the final edge plus the
// total node count — the observables that must be schedule-invariant.
func buildWalk[T any](m *Manager[T], seed int64) Edge[T] {
	const n = 12
	r := rand.New(rand.NewSource(seed))
	state := m.BasisState(n, uint64(r.Intn(1<<n)))
	for i := 0; i < 60; i++ {
		target := 1 + r.Intn(n)
		var ctrls []LocalControl
		if r.Intn(2) == 0 {
			c := 1 + r.Intn(n)
			if c != target {
				ctrls = []LocalControl{{Level: c, Neg: r.Intn(2) == 0}}
			}
		}
		state = m.ApplyLocal(localH(m, target, ctrls), state)
		if r.Intn(4) == 0 {
			other := m.BasisState(n, uint64(r.Intn(1<<n)))
			state = m.Add(state, other)
		}
	}
	return state
}

// TestIntraWorkersDeterminism: the same operation sequence produces
// CrossEqual-identical diagrams (same structure, same canonical weights) and
// identical node counts at every worker count, for both concurrency-safe
// rings.
func TestIntraWorkersDeterminism(t *testing.T) {
	t.Run("alg", func(t *testing.T) {
		ref := algManager(NormLeft)
		refState := buildWalk(ref, 77)
		for _, workers := range []int{2, 4, 8} {
			m := algManager(NormLeft)
			m.SetIntraWorkers(workers)
			if got := m.IntraWorkers(); got != workers {
				t.Fatalf("IntraWorkers = %d, want %d", got, workers)
			}
			st := buildWalk(m, 77)
			if !CrossEqual(ref, refState, m, st) {
				t.Fatalf("workers=%d: diagram differs from sequential run", workers)
			}
			if a, b := refState.NodeCount(), st.NodeCount(); a != b {
				t.Fatalf("workers=%d: node count %d vs sequential %d", workers, b, a)
			}
		}
	})
	t.Run("num-exact", func(t *testing.T) {
		ref := numManager(0)
		refState := buildWalk(ref, 78)
		for _, workers := range []int{2, 4, 8} {
			m := numManager(0)
			m.SetIntraWorkers(workers)
			st := buildWalk(m, 78)
			if !CrossEqual(ref, refState, m, st) {
				t.Fatalf("workers=%d: diagram differs from sequential run", workers)
			}
		}
	})
}

// TestIntraWorkersClampsUnsafeRing: the ε>0 numerical ring is not safe for
// concurrent use (nearest-wins interning is insertion-order-dependent), so
// the manager must refuse to go parallel on it.
func TestIntraWorkersClampsUnsafeRing(t *testing.T) {
	m := numManager(1e-10)
	m.SetIntraWorkers(8)
	if got := m.IntraWorkers(); got != 1 {
		t.Fatalf("ε>0 manager accepted %d intra-workers, want clamp to 1", got)
	}
	m0 := numManager(0)
	m0.SetIntraWorkers(8)
	if got := m0.IntraWorkers(); got != 8 {
		t.Fatalf("ε=0 manager clamped to %d, want 8", got)
	}
}

// TestIntraWorkersBudgetTrip: a budget violation inside a parallel recursion
// unwinds through the worker group as one coherent *BudgetError, and the
// manager remains usable afterwards.
func TestIntraWorkersBudgetTrip(t *testing.T) {
	m := algManager(NormLeft)
	m.SetIntraWorkers(4)
	state := buildWalk(m, 12)
	m.SetBudget(Budget{MaxNodes: m.Stats().UniqueNodes + 2})
	err := func() (err error) {
		defer RecoverTo(&err)
		for i := 0; i < 40; i++ {
			state = m.ApplyLocal(localH(m, 1+i%12, nil), state)
		}
		return nil
	}()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("parallel recursion under tiny budget returned %v, want budget error", err)
	}
	m.SetBudget(Budget{})
	after := m.ApplyLocal(localH(m, 3, nil), m.BasisState(12, 0))
	if m.IsZero(after) {
		t.Fatalf("manager unusable after parallel budget trip")
	}
}

// TestConcurrentShardedTables hammers one shared-mode manager from many
// goroutines with mixed node creation, weight interning, Add and ApplyLocal
// — the raw table-contention pattern intra-op workers produce. Run under
// -race this is the memory-safety proof for the sharded tables; the
// assertions check canonical identity survives the contention (equal values
// always collapse onto one WID/node).
func TestConcurrentShardedTables(t *testing.T) {
	const goroutines = 8
	m := numManager(0)
	m.SetIntraWorkers(goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs <- &PanicError{Value: r}
				}
			}()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				// Everyone interns the same weight universe concurrently.
				w, _ := m.R.FromComplex(complex(float64(i%17), float64(i%5)))
				m.WID(w)
				st := m.BasisState(8, uint64(r.Intn(256)))
				st = m.ApplyLocal(localH(m, 1+r.Intn(8), nil), st)
				st = m.Add(st, m.BasisState(8, uint64(r.Intn(256))))
				_ = st
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Canonical identity check: re-interning every weight universe value
	// resolves to one stable WID each, and round-trips.
	for i := 0; i < 17; i++ {
		w, _ := m.R.FromComplex(complex(float64(i), 0))
		wid := m.WID(w)
		if again := m.WID(w); again != wid {
			t.Fatalf("WID of %v unstable after concurrent interning: %d then %d", w, wid, again)
		}
		if got := m.Weight(wid); got != w {
			t.Fatalf("Weight(%d) = %v, want %v", wid, got, w)
		}
	}
}

// TestConcurrentSharedManagerQ is the alg-ring variant of the stress test:
// big.Int-backed weights exercise pointer-heavy values, and the exact-only
// scalar table its locked shards, under -race.
func TestConcurrentSharedManagerQ(t *testing.T) {
	const goroutines = 6
	m := algManager(NormLeft)
	m.SetIntraWorkers(goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			st := m.BasisState(10, uint64(r.Intn(1024)))
			for i := 0; i < 120; i++ {
				st = m.ApplyLocal(localH(m, 1+r.Intn(10), nil), st)
				if r.Intn(3) == 0 {
					st = m.Add(st, m.BasisState(10, uint64(r.Intn(1024))))
				}
			}
		}(g)
	}
	wg.Wait()
	if st := m.Stats(); st.UniqueNodes == 0 || st.ScalarLookups == 0 {
		t.Fatalf("no nodes created or scalar table untouched: %+v", st)
	}
}
