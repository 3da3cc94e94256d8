package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/alg"
)

// legacyNodeKey reproduces the string key the unique table used before
// integer keying: "level:" then, per edge, "W@id36;", with each weight in
// an exact text form (%v: the canonical rendering of a Q[ω] value, the
// shortest round-trip form of a complex128). The conformance tests below
// assert the integer-keyed table induces exactly the same node identity as
// this scheme does.
func legacyNodeKey[T any](m *Manager[T], level int, es []Edge[T]) string {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(level))
	sb.WriteByte(':')
	for _, e := range es {
		fmt.Fprint(&sb, e.W)
		sb.WriteByte('@')
		if e.N != nil {
			sb.WriteString(strconv.FormatUint(e.N.ID, 36))
		}
		sb.WriteByte(';')
	}
	return sb.String()
}

// checkKeySchemeEquivalence walks the whole unique table and asserts the
// (level, child ID, WID) identity is a bijection with the legacy string
// keys: no two live nodes share a legacy key (the integer scheme did not
// conflate), and re-making any node from its own edges returns the very
// same pointer (the integer scheme did not split, and the hit path works).
func checkKeySchemeEquivalence[T any](t *testing.T, m *Manager[T]) {
	t.Helper()
	keys := make(map[string]*Node[T])
	nodes := 0
	m.ut.forEach(func(n *Node[T]) {
		nodes++
		k := legacyNodeKey(m, n.Level, n.E)
		if prev, dup := keys[k]; dup {
			t.Fatalf("nodes %d and %d share legacy key %q", prev.ID, n.ID, k)
		}
		keys[k] = n
		if got := m.MakeNode(n.Level, n.E); got.N != n {
			t.Fatalf("remaking node %d returned a different node %v", n.ID, got.N)
		}
	})
	if nodes != m.Stats().UniqueNodes {
		t.Fatalf("walked %d nodes, Stats says %d", nodes, m.Stats().UniqueNodes)
	}
}

// TestKeySchemeEquivalenceAlg: integer keys agree with the legacy string
// keys over randomized exact diagrams and the operations combining them.
func TestKeySchemeEquivalenceAlg(t *testing.T) {
	for _, norm := range []NormScheme{NormLeft, NormGCD} {
		m := algManager(norm)
		r := rand.New(rand.NewSource(7))
		acc := m.FromVector(randQVals(r, 16))
		for trial := 0; trial < 20; trial++ {
			v := m.FromVector(randQVals(r, 16))
			acc = m.Add(acc, v)
		}
		checkKeySchemeEquivalence(t, m)
	}
}

func TestKeySchemeEquivalenceNum(t *testing.T) {
	for _, eps := range []float64{0, 1e-10} {
		m := numManager(eps)
		r := rand.New(rand.NewSource(11))
		amps := make([]complex128, 16)
		acc := m.BasisState(4, 0)
		for trial := 0; trial < 20; trial++ {
			for i := range amps {
				if r.Intn(4) == 0 {
					amps[i] = 0
					continue
				}
				amps[i] = complex(r.NormFloat64(), r.NormFloat64())
			}
			acc = m.Add(acc, m.FromVector(amps))
		}
		_ = acc
		checkKeySchemeEquivalence(t, m)
	}
}

// TestWeightInterning: equal weights collapse onto one WID, WID 0 is pinned
// to the ring's zero, and Weight round-trips the canonical representative.
func TestWeightInterning(t *testing.T) {
	m := algManager(NormLeft)
	if got := m.WID(alg.QZero); got != 0 {
		t.Fatalf("zero interned as WID %d, want 0", got)
	}
	half := alg.NewQ(0, 0, 0, 1, 0, 2) // 1/2
	w1 := m.WID(half)
	w2 := m.WID(alg.NewQ(0, 0, 0, 2, 0, 4)) // also 1/2, other construction
	if w1 != w2 {
		t.Fatalf("equal weights interned as %d and %d", w1, w2)
	}
	before := m.Stats().InternedWeights
	for i := 0; i < 100; i++ {
		m.WID(half)
		m.WID(alg.QOne)
	}
	// QOne was already pinned by the manager's constants in use; at most one
	// new ID may have appeared for it, and none for the repeats.
	if after := m.Stats().InternedWeights; after > before+1 {
		t.Fatalf("interning repeats grew the table from %d to %d", before, after)
	}
}

// TestInternTableGrowth: interning far more weights than the initial table
// size keeps distinct values on distinct WIDs and every value on its WID.
func TestInternTableGrowth(t *testing.T) {
	m := numManager(0)
	const n = 5000
	wids := make([]uint32, n)
	for i := 0; i < n; i++ {
		wids[i] = m.WID(complex(float64(i), 0))
	}
	owner := make(map[uint32]int, n)
	for i := 0; i < n; i++ {
		if j, dup := owner[wids[i]]; dup {
			t.Fatalf("values %d and %d share WID %d", j, i, wids[i])
		}
		owner[wids[i]] = i
		if again := m.WID(complex(float64(i), 0)); again != wids[i] {
			t.Fatalf("re-interning %d gave WID %d, want %d", i, again, wids[i])
		}
	}
}

// TestPruneRebuildsInternTable: pruning releases the WIDs only dead nodes
// referenced, while the surviving diagram keeps its pointers and stays fully
// usable for further hash-consed construction.
func TestPruneRebuildsInternTable(t *testing.T) {
	m := algManager(NormLeft)
	r := rand.New(rand.NewSource(3))
	keep := m.FromVector(randQVals(r, 32))
	for i := 0; i < 30; i++ {
		m.FromVector(randQVals(r, 32)) // garbage
	}
	stBefore := m.Stats()
	keepNodes := keep.NodeCount()
	rootNode := keep.N

	removed := m.Prune(keep)
	st := m.Stats()
	if st.UniqueNodes != keepNodes {
		t.Fatalf("after prune: %d unique nodes, want %d", st.UniqueNodes, keepNodes)
	}
	if removed != stBefore.UniqueNodes-keepNodes {
		t.Fatalf("Prune returned %d, want %d", removed, stBefore.UniqueNodes-keepNodes)
	}
	if st.InternedWeights >= stBefore.InternedWeights {
		t.Fatalf("intern table did not shrink: %d -> %d",
			stBefore.InternedWeights, st.InternedWeights)
	}
	if keep.N != rootNode {
		t.Fatalf("prune moved the surviving root node")
	}
	// The survivor must still hash-cons against itself...
	checkKeySchemeEquivalence(t, m)
	// ...and participate in fresh operations.
	sum := m.Add(keep, keep)
	if m.IsZero(sum) && !m.IsZero(keep) {
		t.Fatalf("post-prune Add broke")
	}
}

// TestWithComputeTableSize: the option rounds up to a power of two and is
// reflected in Stats; results are identical regardless of table size.
func TestWithComputeTableSize(t *testing.T) {
	m := NewManager[alg.Q](alg.Ring{}, NormLeft, WithComputeTableSize(100))
	if got := m.Stats().CTCapacity; got != 128 {
		t.Fatalf("CTCapacity = %d, want 128", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("WithComputeTableSize(0) did not panic")
			}
		}()
		WithComputeTableSize(0)
	}()

	// A tiny CT loses memoization, never correctness.
	small := NewManager[alg.Q](alg.Ring{}, NormLeft, WithComputeTableSize(2))
	big := NewManager[alg.Q](alg.Ring{}, NormLeft)
	r1, r2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		a1 := small.Add(small.FromVector(randQVals(r1, 16)), small.FromVector(randQVals(r1, 16)))
		a2 := big.Add(big.FromVector(randQVals(r2, 16)), big.FromVector(randQVals(r2, 16)))
		v1 := small.ToVector(a1, 4)
		v2 := big.ToVector(a2, 4)
		for i := range v1 {
			if !v1[i].Equal(v2[i]) {
				t.Fatalf("trial %d amp %d: CT size changed the result: %v vs %v",
					trial, i, v1[i], v2[i])
			}
		}
	}
}

// TestHitPathAllocationFree: once a node (or memoized operation result)
// exists, looking it up again allocates nothing — the acceptance criterion
// of the integer-keying rework.
func TestHitPathAllocationFree(t *testing.T) {
	t.Run("MakeNodeAlg", func(t *testing.T) {
		m := algManager(NormLeft)
		child := m.MakeVectorNode(1, m.OneEdge(), m.Terminal(alg.QInvSqrt2))
		e0 := Edge[alg.Q]{W: alg.QOne, N: child.N}
		e1 := Edge[alg.Q]{W: alg.QZero}
		m.MakeVectorNode(2, e0, e1) // populate
		if avg := testing.AllocsPerRun(200, func() {
			m.MakeVectorNode(2, e0, e1)
		}); avg != 0 {
			t.Fatalf("alg MakeNode hit path allocates %.1f objects per call", avg)
		}
	})
	t.Run("MakeNodeNum", func(t *testing.T) {
		m := numManager(0)
		child := m.MakeVectorNode(1, m.OneEdge(), m.Terminal(complex(0.5, 0.25)))
		e0 := Edge[complex128]{W: 1, N: child.N}
		e1 := Edge[complex128]{W: 0}
		m.MakeVectorNode(2, e0, e1)
		if avg := testing.AllocsPerRun(200, func() {
			m.MakeVectorNode(2, e0, e1)
		}); avg != 0 {
			t.Fatalf("num MakeNode hit path allocates %.1f objects per call", avg)
		}
	})
	t.Run("AddCTHit", func(t *testing.T) {
		m := algManager(NormLeft)
		r := rand.New(rand.NewSource(21))
		x := m.FromVector(randQVals(r, 8))
		y := m.FromVector(randQVals(r, 8))
		m.Add(x, y) // populate the compute table
		if avg := testing.AllocsPerRun(200, func() {
			m.Add(x, y)
		}); avg != 0 {
			t.Fatalf("Add CT hit path allocates %.1f objects per call", avg)
		}
	})
	t.Run("ScalarHit", func(t *testing.T) {
		m := algManager(NormLeft)
		a := alg.NewQ(1, 0, 2, 1, 1, 3)
		b := alg.NewQ(0, 1, 1, -1, 2, 1)
		m.arith.Mul(a, b) // populate the scalar table
		m.arith.Div(a, b)
		hits := m.Stats().ScalarHits
		if avg := testing.AllocsPerRun(200, func() {
			m.arith.Mul(a, b)
			m.arith.Div(a, b)
		}); avg != 0 {
			t.Fatalf("scalar-table hit path allocates %.1f objects per call", avg)
		}
		if m.Stats().ScalarHits == hits {
			t.Fatal("the measured calls did not hit the scalar table")
		}
	})
}

// TestApplyAddAllocations is the allocation gate of the sequential
// ApplyLocal/Add recursion, with an exact ceiling (allocation counts are
// deterministic). The sequence runs once to create its nodes; every measured
// run then clears the compute table and recomputes the whole sequence, so
// each recursion step runs again and every MakeNode hits the unique table.
// The recursion itself must allocate nothing: the node array lives on the
// stack and no closure captures it.
func TestApplyAddAllocations(t *testing.T) {
	const n = 10
	m := numManager(0)
	var gates []*LocalGate[complex128]
	for l := 1; l <= n; l++ {
		gates = append(gates, localH(m, l, nil))
		if l > 1 {
			// A below-target control takes ApplyLocal's projector split form.
			gates = append(gates, localH(m, l, []LocalControl{{Level: l - 1}}))
		}
	}
	other := m.BasisState(n, 5)
	var last Edge[complex128]
	run := func() {
		m.ct.clear()
		s := m.BasisState(n, 0)
		for i, g := range gates {
			s = m.ApplyLocal(g, s)
			if i%3 == 0 {
				s = m.Add(s, other)
			}
		}
		last = s
	}
	run()
	nodes := m.Stats().UniqueNodes
	if got := testing.AllocsPerRun(20, run); got > 0 {
		t.Errorf("ApplyLocal/Add recomputation: %.0f allocations per run, ceiling 0", got)
	}
	if m.Stats().UniqueNodes != nodes || last.NodeCount() < n {
		t.Fatalf("measured runs did not repeat the sequence (%d nodes, then %d; final state %d nodes)",
			nodes, m.Stats().UniqueNodes, last.NodeCount())
	}
}

func BenchmarkMakeNode(b *testing.B) {
	b.Run("alg", func(b *testing.B) {
		m := algManager(NormLeft)
		child := m.MakeVectorNode(1, m.OneEdge(), m.Terminal(alg.QInvSqrt2))
		e0 := Edge[alg.Q]{W: alg.QOne, N: child.N}
		e1 := Edge[alg.Q]{W: alg.QInvSqrt2, N: child.N}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.MakeVectorNode(2, e0, e1)
		}
	})
	b.Run("num", func(b *testing.B) {
		m := numManager(0)
		child := m.MakeVectorNode(1, m.OneEdge(), m.Terminal(complex(0.5, 0)))
		e0 := Edge[complex128]{W: 1, N: child.N}
		e1 := Edge[complex128]{W: complex(0, 0.5), N: child.N}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.MakeVectorNode(2, e0, e1)
		}
	})
}

func BenchmarkWeightIntern(b *testing.B) {
	b.Run("alg", func(b *testing.B) {
		m := algManager(NormLeft)
		r := rand.New(rand.NewSource(5))
		ws := randQVals(r, 64)
		for _, w := range ws {
			m.WID(w)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.WID(ws[i&63])
		}
	})
	b.Run("num", func(b *testing.B) {
		m := numManager(0)
		ws := make([]complex128, 64)
		r := rand.New(rand.NewSource(5))
		for i := range ws {
			ws[i] = complex(r.NormFloat64(), r.NormFloat64())
			m.WID(ws[i])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.WID(ws[i&63])
		}
	})
}
