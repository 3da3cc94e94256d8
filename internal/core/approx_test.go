package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/alg"
)

// denseFidelity computes |⟨u|v⟩|²/(‖u‖²‖v‖²) from two dense amplitude
// vectors — the reference the diagram-side fidelity accounting must match.
func denseFidelity(u, v []complex128) float64 {
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
	return real(ip)*real(ip)/(nu*nv) + imag(ip)*imag(ip)/(nu*nv)
}

func complexVector[T any](m *Manager[T], v Edge[T], n int) []complex128 {
	vals := m.ToVector(v, n)
	out := make([]complex128, len(vals))
	for i, a := range vals {
		out[i] = m.R.Complex128(a)
	}
	return out
}

func TestApproximateUniformExact(t *testing.T) {
	// Uniform 2-qubit state, floor ½: one contribution-½ edge is zeroed and
	// the exact ring certifies fidelity ½ — not 0.4999…, the rational ½.
	m := algManager(NormLeft)
	h := alg.QInvSqrt2
	q := h.Mul(h)
	v := m.FromVector([]alg.Q{q, q, q, q})
	approx, res, err := m.Approximate(v, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("alg-ring fidelity not flagged exact")
	}
	if res.Fidelity != 0.5 {
		t.Fatalf("Fidelity = %v, want exactly 0.5", res.Fidelity)
	}
	if res.ZeroedEdges == 0 {
		t.Fatal("nothing was zeroed")
	}
	// Kept amplitudes are bit-identical to the originals, removed ones zero.
	kept := 0
	for i := uint64(0); i < 4; i++ {
		a := m.Amplitude(approx, 2, i)
		if a.IsZero() {
			continue
		}
		if !a.Equal(q) {
			t.Fatalf("kept amplitude %d changed: %v", i, a)
		}
		kept++
	}
	if kept != 2 {
		t.Fatalf("kept %d amplitudes, want 2", kept)
	}
}

func TestApproximateMinFidelityOneIsIdentity(t *testing.T) {
	m := algManager(NormLeft)
	r := rand.New(rand.NewSource(3))
	v := m.FromVector(randQVals(r, 16))
	for m.IsZero(v) {
		v = m.FromVector(randQVals(r, 16))
	}
	approx, res, err := m.Approximate(v, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !m.RootsEqual(approx, v) {
		t.Fatal("minFidelity=1 changed the diagram")
	}
	if res.Fidelity != 1 || res.ZeroedEdges != 0 {
		t.Fatalf("res = %+v, want fidelity 1 and no zeroed edges", res)
	}
}

func TestApproximateArgumentErrors(t *testing.T) {
	m := algManager(NormLeft)
	v := m.BasisState(2, 1)
	for _, bad := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, _, err := m.Approximate(v, 2, bad); err == nil {
			t.Fatalf("minFidelity=%v accepted", bad)
		}
	}
	if _, _, err := m.Approximate(m.ZeroEdge(), 2, 0.5); err != ErrZeroVector {
		t.Fatalf("zero vector: err = %v, want ErrZeroVector", err)
	}
}

// TestApproximateDifferentialAlg: for random exact states and a range of
// fidelity floors, the reported fidelity must equal the dense-computed
// fidelity (alg amplitudes convert losslessly within float precision) and
// every kept amplitude must be the exact original value.
func TestApproximateDifferentialAlg(t *testing.T) {
	m := algManager(NormLeft)
	r := rand.New(rand.NewSource(21))
	const n = 4
	for trial := 0; trial < 40; trial++ {
		v := m.FromVector(randQVals(r, 1<<n))
		if m.IsZero(v) {
			continue
		}
		minFid := 0.2 + 0.75*r.Float64()
		approx, res, err := m.Approximate(v, n, minFid)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			t.Fatal("alg fidelity not exact")
		}
		if res.Fidelity < minFid {
			t.Fatalf("trial %d: fidelity %v < floor %v", trial, res.Fidelity, minFid)
		}
		dense := denseFidelity(complexVector(m, v, n), complexVector(m, approx, n))
		if math.Abs(dense-res.Fidelity) > 1e-12 {
			t.Fatalf("trial %d: reported fidelity %v, dense reference %v", trial, res.Fidelity, dense)
		}
		// Subset property: zeroing edges deletes amplitudes, never alters one.
		orig, got := m.ToVector(v, n), m.ToVector(approx, n)
		for i := range got {
			if !got[i].IsZero() && !got[i].Equal(orig[i]) {
				t.Fatalf("trial %d: amplitude %d altered: %v vs %v", trial, i, got[i], orig[i])
			}
		}
	}
}

// TestApproximateDifferentialFloat: same differential check under the float
// representation; the fidelity is reported as approximate.
func TestApproximateDifferentialFloat(t *testing.T) {
	m := numManager(0)
	r := rand.New(rand.NewSource(22))
	const n = 5
	for trial := 0; trial < 40; trial++ {
		v := randomState(m, n, int64(trial)+100)
		minFid := 0.2 + 0.75*r.Float64()
		approx, res, err := m.Approximate(v, n, minFid)
		if err != nil {
			t.Fatal(err)
		}
		if res.Exact {
			t.Fatal("float-ring fidelity flagged exact")
		}
		if res.Fidelity < minFid {
			t.Fatalf("trial %d: fidelity %v < floor %v", trial, res.Fidelity, minFid)
		}
		dense := denseFidelity(complexVector(m, v, n), complexVector(m, approx, n))
		if math.Abs(dense-res.Fidelity) > 1e-9 {
			t.Fatalf("trial %d: reported fidelity %v, dense reference %v", trial, res.Fidelity, dense)
		}
	}
}

// TestApproximateShrinks: on a state with a dominant branch plus low-mass
// clutter, a modest floor must actually reduce the node count.
func TestApproximateShrinks(t *testing.T) {
	m := numManager(0)
	const n = 8
	amps := make([]complex128, 1<<n)
	amps[0] = 1 // dominant basis state
	r := rand.New(rand.NewSource(5))
	for i := 1; i < len(amps); i++ {
		amps[i] = complex(r.NormFloat64(), r.NormFloat64()) * 1e-4
	}
	v := m.FromVector(amps)
	approx, res, err := m.Approximate(v, n, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesAfter >= res.NodesBefore {
		t.Fatalf("no compression: %d → %d nodes", res.NodesBefore, res.NodesAfter)
	}
	if res.Fidelity < 0.99 {
		t.Fatalf("fidelity %v < 0.99", res.Fidelity)
	}
	if got := approx.NodeCount(); got != res.NodesAfter {
		t.Fatalf("NodesAfter %d, diagram has %d", res.NodesAfter, got)
	}
}

// TestApproximateDeterminismAcrossWorkers: the same build sequence on two
// managers with different histories — as on two engine workers, whose
// long-lived managers have built other jobs' diagrams — allocates node IDs
// in different orders; the approximation (ranked with DFS-order tie-breaks,
// never IDs) must still produce the identical diagram and the identical
// report.
func TestApproximateDeterminismAcrossWorkers(t *testing.T) {
	const n = 12
	ref := algManager(NormLeft)
	refState := buildWalk(ref, 99)
	refApprox, refRes, err := ref.Approximate(refState, n, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, history := range []int64{1, 2, 3} {
		m := algManager(NormLeft)
		buildWalk(m, history) // an unrelated diagram shifts the ID order
		st := buildWalk(m, 99)
		if st.N.ID == refState.N.ID {
			t.Fatalf("history %d: root node ID %d unchanged; the ID order did not move", history, st.N.ID)
		}
		approx, res, err := m.Approximate(st, n, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if res != refRes {
			t.Fatalf("history %d: report %+v differs from fresh-manager %+v", history, res, refRes)
		}
		if !CrossEqual(ref, refApprox, m, approx) {
			t.Fatalf("history %d: approximate diagram differs from fresh-manager run", history)
		}
	}
}

// FuzzApproximate: random diagrams × fidelity budgets must never report a
// fidelity below the floor, disagree with the dense reference, or return a
// structurally invalid diagram.
func FuzzApproximate(f *testing.F) {
	f.Add(int64(1), 0.5, uint8(3))
	f.Add(int64(7), 0.99, uint8(5))
	f.Add(int64(42), 0.01, uint8(2))
	f.Add(int64(9), 1.0, uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, minFid float64, nRaw uint8) {
		if !(minFid > 0) || minFid > 1 {
			t.Skip()
		}
		n := int(nRaw%6) + 1
		m := numManager(0)
		v := randomState(m, n, seed)
		if m.IsZero(v) {
			t.Skip()
		}
		approx, res, err := m.Approximate(v, n, minFid)
		if err != nil {
			t.Fatalf("Approximate(seed=%d, minFid=%v, n=%d): %v", seed, minFid, n, err)
		}
		if res.Fidelity < minFid {
			t.Fatalf("fidelity %v < floor %v", res.Fidelity, minFid)
		}
		if res.Fidelity > 1 {
			t.Fatalf("fidelity %v > 1", res.Fidelity)
		}
		// The result must be a valid, sampleable vector diagram (the restore
		// loop forbids collapsing to zero).
		if _, err := m.NewSampler(approx, n); err != nil {
			t.Fatalf("approximate diagram is not sampleable: %v", err)
		}
		dense := denseFidelity(complexVector(m, v, n), complexVector(m, approx, n))
		if math.Abs(dense-res.Fidelity) > 1e-9 {
			t.Fatalf("reported fidelity %v, dense reference %v", res.Fidelity, dense)
		}
	})
}
