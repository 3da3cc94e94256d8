package num

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTableExactModeIsInert(t *testing.T) {
	tb := NewTable(0)
	v := complex(0.123456, -0.654321)
	if got := tb.Lookup(v); got != v {
		t.Fatalf("Lookup changed value in exact mode: %v", got)
	}
	if tb.Size() != 0 {
		t.Fatalf("exact-mode table stored entries: %d", tb.Size())
	}
}

func TestTableCollapsesNearbyValues(t *testing.T) {
	tb := NewTable(1e-10)
	a := complex(1/math.Sqrt2, 0)
	b := a + complex(3e-11, -2e-11)
	ra := tb.Lookup(a)
	rb := tb.Lookup(b)
	if ra != rb {
		t.Fatalf("nearby values interned to different representatives: %v vs %v", ra, rb)
	}
}

func TestTableSeedsSwallowSmallValues(t *testing.T) {
	// With a large tolerance, values near 0 collapse to exactly 0 — the
	// mechanism behind the paper's zero-vector failures at ε = 10⁻³.
	tb := NewTable(1e-3)
	if got := tb.Lookup(complex(4e-4, -9e-4)); got != 0 {
		t.Fatalf("small value interned to %v, want 0", got)
	}
	if got := tb.Lookup(complex(1+5e-4, 0)); got != 1 {
		t.Fatalf("value near 1 interned to %v, want 1", got)
	}
	if got := tb.Lookup(complex(1/math.Sqrt2+2e-4, 0)); got != complex(1/math.Sqrt2, 0) {
		t.Fatalf("value near 1/√2 interned to %v", got)
	}
}

func TestTableDistinctValuesStayDistinct(t *testing.T) {
	tb := NewTable(1e-6)
	a := tb.Lookup(complex(0.25, 0))
	b := tb.Lookup(complex(0.25+1e-3, 0))
	if a == b {
		t.Fatalf("values 1e-3 apart collapsed at ε = 1e-6")
	}
}

// TestTableLookupNearestWins is the regression test for the fixed-scan-order
// bug: with two representatives in tolerance of v, the scan used to keep the
// *first* one it met (lower grid cell first), not the nearest. Here the
// farther representative 0.199 lives in cell 19 and the nearer 0.211 in cell
// 21; v = 0.206 (cell 20) must canonicalize to 0.211.
func TestTableLookupNearestWins(t *testing.T) {
	tol := 1e-2
	tb := NewTable(tol)
	far := complex(0.199, 0)  // cell 19 — scanned first
	near := complex(0.211, 0) // cell 21 — strictly closer to v
	if got := tb.Lookup(far); got != far {
		t.Fatalf("far representative not inserted: %v", got)
	}
	if got := tb.Lookup(near); got != near {
		t.Fatalf("near representative not inserted (collapsed to %v)", got)
	}
	v := complex(0.206, 0) // |v−far| = 0.007, |v−near| = 0.005, both ≤ tol
	if got := tb.Lookup(v); got != near {
		t.Fatalf("Lookup(%v) = %v, want nearest representative %v", v, got, near)
	}
}

// TestTableLookupExactRepShortCircuits: a value that *is* a representative
// must map to itself and be accounted as exactly one hit (the scan
// short-circuits on an exact match instead of iterating on).
func TestTableLookupExactRepShortCircuits(t *testing.T) {
	tol := 1e-2
	tb := NewTable(tol)
	s := complex(1/math.Sqrt2, 0) // pre-seeded exact representative
	hits := tb.Hits
	if got := tb.Lookup(s); got != s {
		t.Fatalf("Lookup of the exact seed returned %v, want %v", got, s)
	}
	if tb.Hits != hits+1 {
		t.Fatalf("exact lookup not accounted as a hit")
	}
	// A nearby value in a *different* cell still canonicalizes onto the
	// seed, exercising the cross-cell path of the nearest-wins scan.
	if got := tb.Lookup(s + complex(0.009, 0)); got != s {
		t.Fatalf("near-seed value interned to %v, want the seed %v", got, s)
	}
}

// TestTableLookupIdempotent: Lookup(Lookup(v)) == Lookup(v) over random
// values and tolerances — every canonical representative is a fixed point.
func TestTableLookupIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tol := range []float64{1e-12, 1e-8, 1e-4, 1e-2} {
		tb := NewTable(tol)
		f := func(a, b int16) bool {
			// Cluster values tightly enough that tolerances actually bind.
			v := complex(float64(a)*tol/3, float64(b)*tol/3)
			r := tb.Lookup(v)
			return tb.Lookup(r) == r && tb.Lookup(v) == r
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rng}); err != nil {
			t.Fatalf("tol %g: %v", tol, err)
		}
	}
}

func TestTableCellBoundary(t *testing.T) {
	// Values within ε that land in adjacent grid cells must still collapse.
	tol := 1e-8
	tb := NewTable(tol)
	base := 3 * tol // exactly on a cell boundary region
	a := tb.Lookup(complex(base-tol/4, 0))
	b := tb.Lookup(complex(base+tol/4, 0))
	if a != b {
		t.Fatalf("boundary-straddling values not collapsed: %v vs %v", a, b)
	}
}

func TestRingOpsIntern(t *testing.T) {
	r := NewRing(1e-9)
	x := complex(1/math.Sqrt2, 0)
	// A second route to 1/√2 with rounding noise.
	y := r.Div(r.Mul(x, x), x+complex(2e-10, 0))
	if !r.Equal(x, y) {
		t.Fatalf("ring did not identify ε-equal values: %v vs %v", x, y)
	}
	if r.Mul(r.One(), x) != x {
		t.Fatalf("interned representatives differ for equal values")
	}
}

func TestRingFromQAndAbs2(t *testing.T) {
	r := NewRing(0)
	// FromQ of 1/√2 must approximate it to machine precision.
	// (constructed via the alg package in its own tests; here use Abs2 only)
	v := complex(3, -4)
	if got := r.Abs2(v); got != 25 {
		t.Fatalf("Abs2(3−4i) = %v, want 25", got)
	}
	if !r.IsZero(r.Zero()) || !r.IsOne(r.One()) {
		t.Fatal("Zero/One predicates broken")
	}
	if r.BitLen(v) != 0 {
		t.Fatal("numeric BitLen should be 0")
	}
}

func TestTableReset(t *testing.T) {
	tb := NewTable(1e-6)
	tb.Lookup(complex(0.31, 0.17))
	seeds := NewTable(1e-6).Size()
	tb.Reset()
	if tb.Size() != seeds {
		t.Fatalf("Reset left %d entries, want %d seeds", tb.Size(), seeds)
	}
}
