package num

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

type qcC struct{ V complex128 }

// Generate produces values spanning many magnitudes, including exact zeros
// and values adjacent in ulps.
func (qcC) Generate(r *rand.Rand, size int) reflect.Value {
	var v complex128
	switch r.Intn(5) {
	case 0:
		v = 0
	case 1:
		v = complex(1/math.Sqrt2, 0)
	case 2:
		base := complex(r.NormFloat64(), r.NormFloat64())
		v = base * complex(math.Pow(10, float64(r.Intn(12)-6)), 0)
	case 3:
		// A value one ulp away from 1/√2.
		v = complex(math.Nextafter(1/math.Sqrt2, 1), 0)
	default:
		v = complex(r.Float64()-0.5, r.Float64()-0.5)
	}
	return reflect.ValueOf(qcC{v})
}

var qcCfg = &quick.Config{MaxCount: 500}

// TestQuickInternIdempotent: interning is idempotent — looking up a
// representative returns itself.
func TestQuickInternIdempotent(t *testing.T) {
	tb := NewTable(1e-10)
	if err := quick.Check(func(a qcC) bool {
		r1 := tb.Lookup(a.V)
		return tb.Lookup(r1) == r1
	}, qcCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickInternWithinTolerance: the representative is within ε of the
// input (component-wise).
func TestQuickInternWithinTolerance(t *testing.T) {
	tol := 1e-9
	tb := NewTable(tol)
	if err := quick.Check(func(a qcC) bool {
		r := tb.Lookup(a.V)
		return Near(a.V, r, tol)
	}, qcCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickNearProperties: reflexive, symmetric, and exact at tol = 0.
func TestQuickNearProperties(t *testing.T) {
	if err := quick.Check(func(a, b qcC) bool {
		if !Near(a.V, a.V, 0) {
			return false
		}
		if Near(a.V, b.V, 1e-9) != Near(b.V, a.V, 1e-9) {
			return false
		}
		return Near(a.V, b.V, 0) == (a.V == b.V)
	}, qcCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickKeyConsistency: equal representatives have equal hashes, the
// key the QMDD core's tables use.
func TestQuickKeyConsistency(t *testing.T) {
	r := NewRing(1e-10)
	if err := quick.Check(func(a, b qcC) bool {
		ra, rb := r.T.Lookup(a.V), r.T.Lookup(b.V)
		return ra != rb || r.Hash(ra) == r.Hash(rb)
	}, qcCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickRingClosedUnderOps: ring operations on interned values stay
// finite (no NaN/Inf creeps in from normal inputs).
func TestQuickRingClosedUnderOps(t *testing.T) {
	r := NewRing(1e-12)
	finite := func(v complex128) bool {
		return !math.IsNaN(real(v)) && !math.IsNaN(imag(v)) &&
			!math.IsInf(real(v), 0) && !math.IsInf(imag(v), 0)
	}
	if err := quick.Check(func(a, b qcC) bool {
		if !finite(a.V) || !finite(b.V) {
			return true
		}
		if !finite(r.Add(a.V, b.V)) || !finite(r.Mul(a.V, b.V)) ||
			!finite(r.Conj(a.V)) {
			return false
		}
		if !r.IsZero(b.V) {
			return finite(r.Div(a.V, b.V))
		}
		return true
	}, qcCfg); err != nil {
		t.Error(err)
	}
}
