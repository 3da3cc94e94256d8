package alg

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) over the algebraic number types.
// Custom generators keep coefficients small enough for fast runs while
// covering negative values, zeros and non-trivial √2 exponents and odd
// denominators.

type qcQ struct{ V Q }

// Generate implements quick.Generator for random Q[ω] values.
func (qcQ) Generate(r *rand.Rand, size int) reflect.Value {
	b := int64(size)
	if b < 2 {
		b = 2
	}
	v := func() int64 { return r.Int63n(2*b+1) - b }
	q := canonQ(NewZomega(v(), v(), v(), v()), r.Intn(7)-3, big.NewInt(2*r.Int63n(b)+1))
	return reflect.ValueOf(qcQ{q})
}

type qcZ struct{ V Zomega }

// Generate implements quick.Generator for random Z[ω] values.
func (qcZ) Generate(r *rand.Rand, size int) reflect.Value {
	b := int64(size)
	if b < 2 {
		b = 2
	}
	v := func() int64 { return r.Int63n(2*b+1) - b }
	return reflect.ValueOf(qcZ{NewZomega(v(), v(), v(), v())})
}

var qcConfig = &quick.Config{MaxCount: 400}

func TestQuickFieldAxioms(t *testing.T) {
	if err := quick.Check(func(a, b, c qcQ) bool {
		x, y, z := a.V, b.V, c.V
		return x.Add(y).Equal(y.Add(x)) &&
			x.Mul(y).Equal(y.Mul(x)) &&
			x.Add(y.Add(z)).Equal(x.Add(y).Add(z)) &&
			x.Mul(y.Mul(z)).Equal(x.Mul(y).Mul(z)) &&
			x.Mul(y.Add(z)).Equal(x.Mul(y).Add(x.Mul(z)))
	}, qcConfig); err != nil {
		t.Error(err)
	}
}

func TestQuickInverses(t *testing.T) {
	if err := quick.Check(func(a qcQ) bool {
		if a.V.IsZero() {
			return true
		}
		return a.V.Mul(QOne.Div(a.V)).IsOne()
	}, qcConfig); err != nil {
		t.Error(err)
	}
}

func TestQuickConjugationIsAutomorphism(t *testing.T) {
	if err := quick.Check(func(a, b qcQ) bool {
		x, y := a.V, b.V
		return x.Mul(y).Conj().Equal(x.Conj().Mul(y.Conj())) &&
			x.Add(y).Conj().Equal(x.Conj().Add(y.Conj())) &&
			x.Conj().Conj().Equal(x)
	}, qcConfig); err != nil {
		t.Error(err)
	}
}

func TestQuickCanonicalInvariants(t *testing.T) {
	if err := quick.Check(func(a, b qcQ) bool {
		q := a.V.Mul(b.V).Add(a.V) // an arbitrary computed value
		if q.E.Sign() <= 0 || q.E.Bit(0) == 0 {
			return false
		}
		if q.IsZero() {
			return q.N.K == 0 && q.E.Cmp(bigOne) == 0
		}
		// Minimal denominator exponent (Algorithm 1 criterion).
		if parityEq(q.N.W.A, q.N.W.C) && parityEq(q.N.W.B, q.N.W.D) {
			return false
		}
		// Reduced against the odd denominator.
		g := new(big.Int).GCD(nil, nil, q.N.W.Content(), q.E)
		return g.Cmp(bigOne) == 0
	}, qcConfig); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyAgreesWithEqual(t *testing.T) {
	if err := quick.Check(func(a, b qcQ) bool {
		return !a.V.Equal(b.V) || a.V.Hash() == b.V.Hash()
	}, qcConfig); err != nil {
		t.Error(err)
	}
}

func TestQuickNormMultiplicativeOnZ(t *testing.T) {
	if err := quick.Check(func(a, b qcZ) bool {
		return a.V.Mul(b.V).Norm().Equal(a.V.Norm().Mul(b.V.Norm()))
	}, qcConfig); err != nil {
		t.Error(err)
	}
}

func TestQuickEuclideanContraction(t *testing.T) {
	if err := quick.Check(func(a, b qcZ) bool {
		if b.V.IsZero() {
			return true
		}
		q, r := QuoRem(a.V, b.V)
		if !q.Mul(b.V).Add(r).Equal(a.V) {
			return false
		}
		return r.Euclid().Cmp(b.V.Euclid()) < 0
	}, qcConfig); err != nil {
		t.Error(err)
	}
}

func TestQuickGCDDivides(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	if err := quick.Check(func(a, b qcZ) bool {
		if a.V.IsZero() || b.V.IsZero() {
			return true
		}
		g := GCDZ(a.V, b.V)
		_, r1 := QuoRem(a.V, g)
		_, r2 := QuoRem(b.V, g)
		return r1.IsZero() && r2.IsZero()
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickCanonicalAssociateIdempotent(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	if err := quick.Check(func(a qcZ) bool {
		if a.V.IsZero() {
			return true
		}
		d := CanonD(a.V, 0)
		zc, unit := CanonicalAssociate(d)
		if !d.Mul(unit).Equal(zc) {
			return false
		}
		zc2, unit2 := CanonicalAssociate(zc)
		return zc2.Equal(zc) && unit2.IsOne()
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickFloatMatchesComplex(t *testing.T) {
	if err := quick.Check(func(a, b qcQ) bool {
		q := a.V.Mul(b.V)
		re, im := q.Float(80)
		c := q.Complex128()
		rf, _ := re.Float64()
		imf, _ := im.Float64()
		scale := 1 + abs64(rf) + abs64(imf)
		return abs64(rf-real(c)) < 1e-9*scale && abs64(imf-imag(c)) < 1e-9*scale
	}, qcConfig); err != nil {
		t.Error(err)
	}
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
