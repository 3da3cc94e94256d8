package prefix

import (
	"context"
	"testing"

	"repro/internal/alg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ddio"
	"repro/internal/qcache"
	"repro/internal/sim"
)

func newManager() *core.Manager[alg.Q] {
	return core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
}

func memCache(t *testing.T) *qcache.Cache {
	t.Helper()
	c, err := qcache.NewBounded(1<<20, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newStore(t *testing.T, c *qcache.Cache) *Store[alg.Q] {
	t.Helper()
	s := NewStore(c, "alg", 0, core.NormLeft, ddio.Codec[alg.Q](ddio.AlgCodec{}))
	if s == nil {
		t.Fatal("NewStore returned nil for an enabled cache")
	}
	return s
}

// testCircuit is a 3-qubit GHZ preparation with a phase tail — unitary, and
// structured enough that every prefix state is distinct.
func testCircuit() *circuit.Circuit {
	return circuit.New("ghz-t", 3).H(0).CX(0, 1).CX(1, 2).T(2).S(0)
}

// amplitudes renders every basis amplitude of the state — the exact
// algebraic ring makes equality meaningful.
func amplitudes(m *core.Manager[alg.Q], e core.Edge[alg.Q], n int) []complex128 {
	out := make([]complex128, 1<<n)
	for i := range out {
		out[i] = m.R.Complex128(m.Amplitude(e, n, uint64(i)))
	}
	return out
}

// TestStoreProbeRoundTrip checkpoints a mid-circuit prefix state, resumes a
// fresh manager from it, and checks the warm run reproduces the cold run's
// amplitudes exactly.
func TestStoreProbeRoundTrip(t *testing.T) {
	c := testCircuit()
	plan := PlanOf(c)
	if plan.Boundary != c.Len() {
		t.Fatalf("unitary circuit: boundary = %d, want %d", plan.Boundary, c.Len())
	}
	st := newStore(t, memCache(t))

	// Cold run, checkpointing after gate 3.
	const k = 3
	cold := newManager()
	cs := sim.New(cold, c.N)
	if err := cs.Run(c, func(i int, _ circuit.Gate) bool {
		if i+1 == k {
			if n, err := st.Store(cold, cs.State, plan.Links[k], c.N, 0); err != nil || n == 0 {
				t.Fatalf("storing checkpoint: n=%d err=%v", n, err)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := amplitudes(cold, cs.State, c.N)

	// Warm run: a fresh manager probes the plan, resumes at k, and must land
	// on the same state.
	warm := newManager()
	ws := sim.New(warm, c.N)
	got, state, ok := st.Probe(warm, plan, c.N)
	if !ok || got != k {
		t.Fatalf("Probe = (%d, %t), want (%d, true)", got, ok, k)
	}
	ws.State = state
	if err := ws.RunFromCtx(nil, c, got, nil); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if g := amplitudes(warm, ws.State, c.N)[i]; g != w {
			t.Fatalf("amplitude %d: warm %v != cold %v", i, g, w)
		}
	}
}

// TestProbePrefersLongestPrefix: with checkpoints at two positions, Probe
// restores the longer one.
func TestProbePrefersLongestPrefix(t *testing.T) {
	c := testCircuit()
	plan := PlanOf(c)
	st := newStore(t, memCache(t))
	for _, k := range []int{2, 4} {
		m2 := newManager()
		s2 := sim.New(m2, c.N)
		pc := &circuit.Circuit{N: c.N, Gates: c.Gates[:k]}
		if err := s2.Run(pc, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Store(m2, s2.State, plan.Links[k], c.N, 0); err != nil {
			t.Fatal(err)
		}
	}
	k, _, ok := st.Probe(newManager(), plan, c.N)
	if !ok || k != 4 {
		t.Fatalf("Probe = (%d, %t), want (4, true)", k, ok)
	}
}

// TestProbeRespectsBoundary: a checkpoint past the unitary boundary is never
// resumed, even when cached.
func TestProbeRespectsBoundary(t *testing.T) {
	c := testCircuit()
	plan := PlanOf(c)
	st := newStore(t, memCache(t))
	m := newManager()
	s := sim.New(m, c.N)
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Store(m, s.State, plan.Links[c.Len()], c.N, 0); err != nil {
		t.Fatal(err)
	}
	clamped := Plan{Links: plan.Links, Boundary: 2}
	if k, _, ok := st.Probe(newManager(), clamped, c.N); ok {
		t.Fatalf("Probe resumed k=%d past the boundary", k)
	}
}

// TestStoreMaxBytesSkips: an oversized snapshot is skipped whole, never
// truncated or stored.
func TestStoreMaxBytesSkips(t *testing.T) {
	c := testCircuit()
	plan := PlanOf(c)
	st := newStore(t, memCache(t))
	m := newManager()
	s := sim.New(m, c.N)
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	n, err := st.Store(m, s.State, plan.Links[c.Len()], c.N, 1)
	if err != nil || n != 0 {
		t.Fatalf("oversized Store = (%d, %v), want (0, nil)", n, err)
	}
	if k, _, ok := st.Probe(newManager(), plan, c.N); ok {
		t.Fatalf("skipped checkpoint was still probed at k=%d", k)
	}
}

// TestNilAndDisabledStore: a nil store and a store over a disabled cache are
// both valid no-ops.
func TestNilAndDisabledStore(t *testing.T) {
	disabled, err := qcache.NewBounded(0, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := NewStore(disabled, "alg", 0, core.NormLeft, ddio.Codec[alg.Q](ddio.AlgCodec{})); s != nil {
		t.Fatal("NewStore over a disabled cache is not nil")
	}
	var s *Store[alg.Q]
	c := testCircuit()
	m := newManager()
	if _, _, ok := s.Probe(m, PlanOf(c), c.N); ok {
		t.Fatal("nil store probed a hit")
	}
	if _, ok := s.Load(m, PlanOf(c).Links[0], c.N); ok {
		t.Fatal("nil store loaded a hit")
	}
	if n, err := s.Store(m, core.Edge[alg.Q]{}, PlanOf(c).Links[0], c.N, 0); n != 0 || err != nil {
		t.Fatalf("nil store Store = (%d, %v)", n, err)
	}
}

// TestAlgKeyIsEpsIndependent: the exact representation folds ε out of the
// key, so every writer of an alg checkpoint shares one key; float keeps ε.
func TestAlgKeyIsEpsIndependent(t *testing.T) {
	cache := memCache(t)
	link := PlanOf(testCircuit()).Links[2]
	algA := NewStore(cache, "alg", 0, core.NormLeft, ddio.Codec[alg.Q](ddio.AlgCodec{}))
	algB := NewStore(cache, "alg", 0.5, core.NormLeft, ddio.Codec[alg.Q](ddio.AlgCodec{}))
	if algA.Key(link) != algB.Key(link) {
		t.Error("alg checkpoint keys depend on ε")
	}
	floA := NewStore(cache, "float", 0, core.NormLeft, ddio.Codec[complex128](ddio.NumCodec{}))
	floB := NewStore(cache, "float", 0.5, core.NormLeft, ddio.Codec[complex128](ddio.NumCodec{}))
	if floA.Key(link) == floB.Key(link) {
		t.Error("float checkpoint keys ignore ε")
	}
	if algA.Key(link) == floA.Key(link) {
		t.Error("alg and float checkpoints share a key")
	}
}

// TestTrackerRules pins the checkpoint policy: the boundary always fires,
// the cadence rule fires every K gates, the high-water rule fires on node
// doubling above the floor, and nothing fires past the boundary.
func TestTrackerRules(t *testing.T) {
	tr := Policy{EveryK: 4}.NewTracker(1)
	cases := []struct {
		name               string
		k, boundary, nodes int
		want               bool
	}{
		{"position 0", 0, 10, 1, false},
		{"boundary", 10, 10, 1, true},
		{"past boundary", 11, 10, 1, false},
		{"cadence", 4, 10, 1, true},
		{"off cadence", 5, 10, 1, false},
		{"below floor no high-water", 3, 10, 255, false},
		{"high-water", 3, 10, 256, true},
	}
	for _, tc := range cases {
		if got := tr.Should(tc.k, tc.boundary, tc.nodes); got != tc.want {
			t.Errorf("%s: Should(%d, %d, %d) = %t, want %t", tc.name, tc.k, tc.boundary, tc.nodes, got, tc.want)
		}
	}

	// Stored resets the high-water baseline: after recording 300 nodes the
	// rule needs 600, not 256.
	tr.Stored(300)
	if tr.Should(3, 10, 400) {
		t.Error("high-water fired below 2× the stored baseline")
	}
	if !tr.Should(3, 10, 600) {
		t.Error("high-water did not fire at 2× the stored baseline")
	}

	// EveryK 0 disables the cadence rule but not the boundary.
	tr2 := Policy{}.NewTracker(1)
	if tr2.Should(4, 10, 1) {
		t.Error("cadence fired with EveryK = 0")
	}
	if !tr2.Should(10, 10, 1) {
		t.Error("boundary did not fire with EveryK = 0")
	}
}

// TestResumeStoresThenWarmStarts: a cold run through Resume checkpoints
// the cadence positions and the boundary and reports each stored size; a
// second run resumes from the final state, skipping every gate, with the
// cold run's amplitudes. A nil store means a cold run with no hook.
func TestResumeStoresThenWarmStarts(t *testing.T) {
	c := testCircuit()
	st := newStore(t, memCache(t))
	pol := Policy{EveryK: 2}

	cold := sim.New(newManager(), c.N)
	var stored, bytes int
	from, hook := Resume(st, cold, c, pol, func(n int) { stored++; bytes += n })
	if from != 0 || hook == nil {
		t.Fatalf("cold: from = %d, hook nil = %v", from, hook == nil)
	}
	if err := cold.RunFromCtx(context.Background(), c, from, hook); err != nil {
		t.Fatal(err)
	}
	// Positions 2 and 4 by cadence, 5 as the boundary.
	if stored != 3 || bytes == 0 {
		t.Fatalf("stored %d checkpoints (%d bytes), want 3", stored, bytes)
	}

	warm := sim.New(newManager(), c.N)
	from, _ = Resume(st, warm, c, pol, func(int) {})
	if from != c.Len() {
		t.Fatalf("warm: resumed at gate %d, want %d", from, c.Len())
	}
	want, got := amplitudes(cold.M, cold.State, c.N), amplitudes(warm.M, warm.State, c.N)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("amplitude %d: warm %v, cold %v", i, got[i], want[i])
		}
	}

	if from, hook := Resume[alg.Q](nil, sim.New(newManager(), c.N), c, pol, nil); from != 0 || hook != nil {
		t.Fatalf("nil store: from = %d, hook nil = %v", from, hook == nil)
	}
}
