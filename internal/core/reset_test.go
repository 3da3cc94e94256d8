package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/alg"
)

// memoFill reports the largest per-shard count of occupied slots of the
// compute and scalar tables, each as a fraction of the shard's array: the
// storage a clear zeroes and the dirty-slot list is sized against (for the
// compute table, the physical array, not the logical slot count).
func memoFill[T any](m *Manager[T]) (ct, scalar float64) {
	for s := range m.ct.shards {
		sh := &m.ct.shards[s]
		n := 0
		for i := range sh.entries {
			if sh.entries[i].key.op != ctFree {
				n++
			}
		}
		ct = max(ct, float64(n)/float64(len(sh.entries)))
	}
	for s := range m.st.shards {
		sh := &m.st.shards[s]
		n := 0
		for i := range sh.entries {
			if sh.entries[i].op != scalarFree {
				n++
			}
		}
		if len(sh.entries) > 0 {
			scalar = max(scalar, float64(n)/float64(len(sh.entries)))
		}
	}
	return ct, scalar
}

// wholeClears reports whether some shard of the compute and of the scalar
// table will be cleared whole rather than slot by slot: its fills overflowed
// the dirty-slot list, or (compute table) its array grew since the last
// clear, which restarts the list.
func wholeClears[T any](m *Manager[T]) (ct, scalar bool) {
	for s := range m.ct.shards {
		ct = ct || m.ct.shards[s].filled > len(m.ct.shards[s].dirty)
	}
	for s := range m.st.shards {
		scalar = scalar || m.st.shards[s].filled > len(m.st.shards[s].dirty)
	}
	return ct, scalar
}

// TestMemoTableClearRestoresFreshSlots fills both memo tables once within
// and once past what their dirty-slot lists hold, clears them, and checks
// every slot against the zero entry and every counter against 0: a cleared
// table is a fresh one, whichever way the clear went.
func TestMemoTableClearRestoresFreshSlots(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps int // buildWalk runs
		muls  int // random exact products through the scalar table
		past  bool
	}{
		{"below", 0, 8, false},
		{"past", 1, 4000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManager[alg.Q](alg.Ring{}, NormLeft, WithComputeTableSize(1<<12))
			s := m.BasisState(4, 0)
			s = m.ApplyLocal(localH(m, 1, nil), s)
			s = m.ApplyLocal(localH(m, 2, []LocalControl{{Level: 1}}), s)
			for i := 0; i < tc.steps; i++ {
				buildWalk(m, int64(i))
			}
			r := rand.New(rand.NewSource(3))
			for i := 0; i < tc.muls; i++ {
				v := randQVals(r, 2)
				m.arith.Mul(v[0], v[1])
			}
			if ctWhole, stWhole := wholeClears(m); tc.past != ctWhole || tc.past != stWhole {
				ctFill, stFill := memoFill(m)
				t.Fatalf("whole-array clears pending: %v (compute, fullest shard %.3f) and %v (scalar, %.3f), want %v",
					ctWhole, ctFill, stWhole, stFill, tc.past)
			}
			if st := m.Stats(); st.CTEntries == 0 || st.CTLookups == 0 || st.ScalarLookups == 0 {
				t.Fatalf("workload left the tables empty: %+v", st)
			}

			m.ct.clear()
			m.st.clear()
			for s := range m.ct.shards {
				for i, e := range m.ct.shards[s].entries {
					if !reflect.ValueOf(e).IsZero() {
						t.Fatalf("compute-table shard %d slot %d not cleared: %+v", s, i, e.key)
					}
				}
			}
			for s := range m.st.shards {
				for i, e := range m.st.shards[s].entries {
					if !reflect.ValueOf(e).IsZero() {
						t.Fatalf("scalar-table shard %d slot %d not cleared (op %d)", s, i, e.op)
					}
				}
			}
			st := m.Stats()
			if st.CTLookups != 0 || st.CTHits != 0 || st.CTEntries != 0 || st.ScalarLookups != 0 || st.ScalarHits != 0 {
				t.Fatalf("counters survived the clear: %+v", st)
			}
		})
	}
}

// TestMemoPutAllocationFree: storing into either memo table at its
// steady-state size allocates nothing, whether the slot was free or
// occupied, and also once a shard has filled more slots than its dirty-slot
// list holds. The compute table's arrays grow to the largest fill a manager
// has seen and keep that size through clears, so the table is first grown
// to its full size and cleared; growth is then checked directly, since
// AllocsPerRun's integer division could hide it.
func TestMemoPutAllocationFree(t *testing.T) {
	m := algManager(NormLeft)
	val := m.OneEdge()
	var id uint64
	fresh := func() { id++; m.ct.put(ctKey{op: ctAdd, aID: id}, val) }
	occupied := func() { m.ct.put(ctKey{op: ctAdd, aID: 1}, val) }
	a, b := alg.NewQ(1, 0, 2, 1, 1, 3), alg.NewQ(0, 1, 1, -1, 2, 1)
	var h uint64
	freshScalar := func() { h++; m.st.put(scalarMul, h, h, a, b, a) }
	occupiedScalar := func() { m.st.put(scalarMul, 1, 1, a, b, a) }
	for i := 0; i < 1<<10; i++ {
		freshScalar() // allocate every scalar shard before measuring
	}
	for i := 0; i < m.ct.capacity(); i++ {
		fresh()
	}
	grows := 0
	for s := range m.ct.shards {
		sh := &m.ct.shards[s]
		if uint64(len(sh.entries)) != sh.mask+1 {
			t.Fatalf("shard %d holds %d entries after %d puts, not its %d slots", s, len(sh.entries), id, sh.mask+1)
		}
		grows += sh.grows
	}
	m.ct.clear()
	check := func(phase string) {
		t.Helper()
		for _, c := range []struct {
			name string
			f    func()
		}{{"ct/free", fresh}, {"ct/occupied", occupied}, {"scalar/free", freshScalar}, {"scalar/occupied", occupiedScalar}} {
			if got := testing.AllocsPerRun(500, c.f); got != 0 {
				t.Errorf("%s %s put: %.1f allocations, want 0", phase, c.name, got)
			}
		}
	}
	check("below the dirty-list bound")
	for i := 0; i < m.ct.capacity()/4; i++ {
		fresh()
	}
	for i := 0; i < scalarTableSize/2; i++ {
		freshScalar()
	}
	if ctFill, stFill := memoFill(m); ctFill <= 1.0/8 || stFill <= 1.0/8 {
		t.Fatalf("fill %.3f (compute) and %.3f (scalar): not past the dirty-list bound", ctFill, stFill)
	}
	check("past the dirty-list bound")
	for s := range m.ct.shards {
		grows -= m.ct.shards[s].grows
	}
	if grows != 0 {
		t.Errorf("puts into the steady-state table doubled its arrays %d times", -grows)
	}
}

// TestResetRefusesStaleLocalGate: gate IDs restart at Reset, so a gate
// prepared before it could alias the compute-table entries of a gate
// prepared after it. ApplyLocal refuses it; the panic surfaces as a
// *PanicError at a RecoverTo boundary.
func TestResetRefusesStaleLocalGate(t *testing.T) {
	m := algManager(NormLeft)
	stale := localH(m, 1, nil)
	m.ApplyLocal(stale, m.BasisState(2, 0))
	m.Reset()
	apply := func(g *LocalGate[alg.Q]) (err error) {
		defer RecoverTo(&err)
		m.ApplyLocal(g, m.BasisState(2, 0))
		return nil
	}
	var pe *PanicError
	if err := apply(stale); !errors.As(err, &pe) {
		t.Fatalf("stale gate after Reset: err = %v, want *PanicError", err)
	}
	if err := apply(localH(m, 1, nil)); err != nil {
		t.Fatalf("gate prepared after Reset: %v", err)
	}
}

// TestResetMatchesFreshManager: a manager that ran other work and was Reset
// repeats a fresh manager's run exactly — the same amplitudes, bit for bit
// (including the ε-interned float ring, whose tolerance table Reset drops),
// and the same counters, node and gate IDs included.
func TestResetMatchesFreshManager(t *testing.T) {
	t.Run("alg", func(t *testing.T) {
		checkResetMatchesFresh(t, func() *Manager[alg.Q] { return algManager(NormLeft) })
	})
	for _, eps := range []float64{0, 1e-10, 1e-3} {
		t.Run(fmt.Sprintf("float/eps=%g", eps), func(t *testing.T) {
			checkResetMatchesFresh(t, func() *Manager[complex128] { return numManager(eps) })
		})
	}
}

// shortWalk is a smaller buildWalk: random controlled Hadamards and basis
// additions on an 8-qubit state.
func shortWalk[T any](m *Manager[T], seed int64) Edge[T] {
	const n = 8
	r := rand.New(rand.NewSource(seed))
	state := m.BasisState(n, uint64(r.Intn(1<<n)))
	for i := 0; i < 40; i++ {
		target := 1 + r.Intn(n)
		var ctrls []LocalControl
		if c := 1 + r.Intn(n); c != target {
			ctrls = []LocalControl{{Level: c, Neg: r.Intn(2) == 0}}
		}
		state = m.ApplyLocal(localH(m, target, ctrls), state)
		if r.Intn(4) == 0 {
			state = m.Add(state, m.BasisState(n, uint64(r.Intn(1<<n))))
		}
	}
	return state
}

func checkResetMatchesFresh[T any](t *testing.T, newM func() *Manager[T]) {
	t.Helper()
	const n = 8
	job := func(m *Manager[T]) ([]complex128, Stats, uint64) {
		e := shortWalk(m, 7)
		v := make([]complex128, 1<<n)
		for i := range v {
			v[i] = m.R.Complex128(m.Amplitude(e, n, uint64(i)))
		}
		return v, m.Stats(), e.N.ID
	}
	fresh := newM()
	want, wantStats, wantID := job(fresh)

	warm := newM()
	for seed := int64(1); seed <= 3; seed++ {
		shortWalk(warm, seed)
	}
	warm.Reset()
	got, gotStats, gotID := job(warm)
	if gotStats != wantStats || gotID != wantID {
		t.Errorf("after Reset: stats %+v, root ID %d; fresh: %+v, root ID %d", gotStats, gotID, wantStats, wantID)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("amplitude %d after Reset %v, fresh %v", i, got[i], want[i])
		}
	}
}
