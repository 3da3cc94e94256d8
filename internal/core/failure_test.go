package core

import (
	"errors"
	"testing"

	"repro/internal/alg"
)

// Failure injection: misuse of the diagram API must fail loudly (panics
// with clear messages), never silently corrupt a computation.

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	f()
}

func TestShapeMismatchesPanic(t *testing.T) {
	m := algManager(NormLeft)
	vec2 := m.BasisState(2, 1)
	vec3 := m.BasisState(3, 1)
	mat2 := m.Identity(2)

	mustPanic(t, "Add of different levels", func() { m.Add(vec2, vec3) })
	mustPanic(t, "Add of vector and matrix", func() { m.Add(vec2, mat2) })
	mustPanic(t, "Mul with vector on the left", func() { m.Mul(vec2, vec2) })
	mustPanic(t, "Mul of different levels", func() { m.Mul(mat2, vec3) })
	mustPanic(t, "Add of scalar and node", func() {
		m.Add(m.Terminal(alg.QOne), vec2)
	})
}

func TestMakeNodeValidation(t *testing.T) {
	m := algManager(NormLeft)
	mustPanic(t, "MakeNode at level 0", func() {
		m.MakeNode(0, []Edge[alg.Q]{m.OneEdge(), m.ZeroEdge()})
	})
}

func TestProjectValidation(t *testing.T) {
	m := algManager(NormLeft)
	v := m.BasisState(2, 0)
	if _, _, err := m.Project(v, 2, 5, 0); err == nil {
		t.Error("Project qubit out of range did not error")
	}
	if _, _, err := m.Project(v, 2, -1, 0); err == nil {
		t.Error("Project negative qubit did not error")
	}
	if _, _, err := m.Project(v, 2, 0, 2); err == nil {
		t.Error("Project bad outcome did not error")
	}
	// A matrix diagram is not a vector diagram: Project must refuse it
	// instead of panicking.
	if _, _, err := m.Project(m.Identity(2), 2, 0, 0); !errors.Is(err, ErrMalformedDiagram) {
		t.Errorf("Project on matrix diagram: err = %v, want ErrMalformedDiagram", err)
	}
	// A diagram shallower than the claimed qubit count is malformed.
	if _, _, err := m.Project(m.BasisState(1, 0), 3, 2, 0); !errors.Is(err, ErrMalformedDiagram) {
		t.Errorf("Project on shallow diagram: err = %v, want ErrMalformedDiagram", err)
	}
}

// TestSampleValidation: NewSampler, and Approximate through it, refuse
// zero-mass and structurally invalid vector diagrams with a sentinel error.
func TestSampleValidation(t *testing.T) {
	m := algManager(NormLeft)
	for _, tc := range []struct {
		name string
		v    Edge[alg.Q]
		n    int
		want error
	}{
		{"zero vector", m.ZeroEdge(), 2, ErrZeroVector},
		{"matrix diagram", m.Identity(2), 2, ErrMalformedDiagram},
		// Claiming more qubits than the diagram has levels must error, not
		// walk off the terminal.
		{"shallow diagram", m.BasisState(1, 0), 3, ErrMalformedDiagram},
		// A level-3 node whose nonzero child sits at level 1.
		{"level-skipping diagram", m.MakeVectorNode(3, m.BasisState(1, 0), m.ZeroEdge()), 3, ErrMalformedDiagram},
	} {
		if _, err := m.NewSampler(tc.v, tc.n); !errors.Is(err, tc.want) {
			t.Errorf("NewSampler of %s: err = %v, want %v", tc.name, err, tc.want)
		}
		if _, _, err := m.Approximate(tc.v, tc.n, 0.5); !errors.Is(err, tc.want) {
			t.Errorf("Approximate of %s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := m.NewSampler(m.BasisState(2, 0), 0); err == nil {
		t.Error("NewSampler with zero qubits did not error")
	}
}

func TestBuildersValidate(t *testing.T) {
	m := algManager(NormLeft)
	mustPanic(t, "FromVector with non-power-of-two", func() {
		m.FromVector(make([]alg.Q, 3))
	})
	mustPanic(t, "FromMatrix non-square", func() {
		m.FromMatrix([][]alg.Q{
			{alg.QOne, alg.QZero},
			{alg.QZero},
		})
	})
}

func TestDivByZeroWeightPanics(t *testing.T) {
	// Field division by an exact zero must panic (Q[ω] semantics), and the
	// normalization paths never reach it because zero edges are stripped
	// before normalization.
	mustPanic(t, "Q division by zero", func() {
		alg.Ring{}.Div(alg.QOne, alg.QZero)
	})
}

func TestComputeTableCollisionSafety(t *testing.T) {
	// A tiny compute table forces constant overwrites; results must still be
	// correct because entries verify the full key.
	m := algManager(NormLeft)
	m.ct = newComputeTable[alg.Q](4)
	id := m.Identity(4)
	v := m.BasisState(4, 9)
	for i := 0; i < 10; i++ {
		if !m.RootsEqual(m.Mul(id, v), v) {
			t.Fatal("collision-heavy compute table corrupted a result")
		}
		if !m.RootsEqual(m.Add(v, m.ZeroEdge()), v) {
			t.Fatal("collision-heavy add corrupted a result")
		}
	}
}

func TestComputeTableSizeValidation(t *testing.T) {
	mustPanic(t, "non-power-of-two compute table", func() { newComputeTable[int](3) })
	mustPanic(t, "zero-size compute table", func() { newComputeTable[int](0) })
	mustPanic(t, "compute table past the 32-bit slot field", func() { newComputeTable[int](1 << 37) })
}
