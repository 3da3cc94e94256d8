package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/alg"
)

// Property-based tests of the diagram invariants: canonicity, linearity of
// Add, the Kronecker mixed-product identity, and adjoint involution — all
// over one shared manager so that hash-consing is actually exercised.

var quickMgr = NewManager[alg.Q](alg.Ring{}, NormLeft)

type qcVec struct{ Amps []alg.Q }

// Generate implements quick.Generator for random 3-qubit amplitude vectors.
func (qcVec) Generate(r *rand.Rand, size int) reflect.Value {
	amps := make([]alg.Q, 8)
	for i := range amps {
		if r.Intn(3) == 0 {
			amps[i] = alg.QZero
			continue
		}
		v := func() int64 { return r.Int63n(9) - 4 }
		amps[i] = alg.NewQ(v(), v(), v(), v(), r.Intn(5)-2, 1)
	}
	return reflect.ValueOf(qcVec{amps})
}

type qcMat struct{ Rows [][]alg.Q }

// Generate implements quick.Generator for random 2-qubit matrices.
func (qcMat) Generate(r *rand.Rand, size int) reflect.Value {
	rows := make([][]alg.Q, 4)
	for i := range rows {
		rows[i] = make([]alg.Q, 4)
		for j := range rows[i] {
			if r.Intn(3) == 0 {
				rows[i][j] = alg.QZero
				continue
			}
			v := func() int64 { return r.Int63n(7) - 3 }
			rows[i][j] = alg.NewQ(v(), v(), v(), v(), r.Intn(3)-1, 1)
		}
	}
	return reflect.ValueOf(qcMat{rows})
}

var quickCfg = &quick.Config{MaxCount: 80}

func TestQuickCanonicityUnderScaling(t *testing.T) {
	m := quickMgr
	if err := quick.Check(func(v qcVec) bool {
		e1 := m.FromVector(v.Amps)
		scale := alg.NewQ(1, 0, -2, 3, 1, 1)
		scaled := make([]alg.Q, len(v.Amps))
		for i, a := range v.Amps {
			scaled[i] = a.Mul(scale)
		}
		e2 := m.FromVector(scaled)
		if m.IsZero(e1) {
			return m.IsZero(e2)
		}
		return e1.N == e2.N
	}, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickAddLinearity(t *testing.T) {
	m := quickMgr
	if err := quick.Check(func(x, y qcVec) bool {
		ex, ey := m.FromVector(x.Amps), m.FromVector(y.Amps)
		sum := m.Add(ex, ey)
		for i := range x.Amps {
			want := x.Amps[i].Add(y.Amps[i])
			if !m.Amplitude(sum, 3, uint64(i)).Equal(want) {
				return false
			}
		}
		// Commutativity at the diagram level (identical roots).
		return m.RootsEqual(sum, m.Add(ey, ex))
	}, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMulAssociativity(t *testing.T) {
	m := quickMgr
	if err := quick.Check(func(a, b, c qcMat) bool {
		da, db, dc := m.FromMatrix(a.Rows), m.FromMatrix(b.Rows), m.FromMatrix(c.Rows)
		left := m.Mul(m.Mul(da, db), dc)
		right := m.Mul(da, m.Mul(db, dc))
		return m.RootsEqual(left, right)
	}, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMulDistributesOverAdd(t *testing.T) {
	m := quickMgr
	if err := quick.Check(func(a, b qcMat, v qcVec) bool {
		da, db := m.FromMatrix(a.Rows), m.FromMatrix(b.Rows)
		dv2 := m.FromVector(v.Amps[:4])
		lhs := m.Mul(m.Add(da, db), dv2)
		rhs := m.Add(m.Mul(da, dv2), m.Mul(db, dv2))
		return m.RootsEqual(lhs, rhs)
	}, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickKroneckerMixedProduct(t *testing.T) {
	// (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD) — a strong joint test of Mul and Kron.
	m := quickMgr
	small := func(r qcMat) Edge[alg.Q] {
		rows := [][]alg.Q{
			{r.Rows[0][0], r.Rows[0][1]},
			{r.Rows[1][0], r.Rows[1][1]},
		}
		return m.FromMatrix(rows)
	}
	if err := quick.Check(func(a, b, c, d qcMat) bool {
		A, B, C, D := small(a), small(b), small(c), small(d)
		lhs := m.Mul(m.Kron(A, B), m.Kron(C, D))
		rhs := m.Kron(m.Mul(A, C), m.Mul(B, D))
		return m.RootsEqual(lhs, rhs)
	}, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickAdjointInvolution(t *testing.T) {
	m := quickMgr
	if err := quick.Check(func(a qcMat) bool {
		da := m.FromMatrix(a.Rows)
		return m.RootsEqual(m.Adjoint(m.Adjoint(da)), da)
	}, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickEntryAgreesWithDense(t *testing.T) {
	m := quickMgr
	if err := quick.Check(func(a qcMat) bool {
		da := m.FromMatrix(a.Rows)
		for i := uint64(0); i < 4; i++ {
			for j := uint64(0); j < 4; j++ {
				if !m.Entry(da, 2, i, j).Equal(a.Rows[i][j]) {
					return false
				}
			}
		}
		return true
	}, quickCfg); err != nil {
		t.Error(err)
	}
}
