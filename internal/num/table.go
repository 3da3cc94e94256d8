// Package num implements the numerical complex-number substrate of current
// QMDD packages: IEEE-754 double-precision values compared and interned with
// a configurable tolerance ε. It is the representation whose
// accuracy/compactness trade-off the paper quantifies (Section III, V-A).
package num

import (
	"math"
)

// Table interns complex values so that numbers differing by at most Tol in
// both the real and the imaginary component map to one canonical
// representative — exactly the mechanism existing QMDD packages use to
// re-detect redundancies destroyed by floating-point rounding. With Tol = 0
// the table is inert and comparisons are exact bit equality (the paper's
// ε = 0 configuration).
//
// The table pre-seeds the exceptional values 0, ±1, ±i and ±1/√2 so that,
// with a large tolerance, computed amplitudes collapse onto them — this is
// what produces the paper's "perfectly compact but obviously wrong"
// zero-vector results for ε = 10⁻³.
type Table struct {
	Tol     float64
	buckets map[cell][]complex128
	// Lookups counts intern operations; Hits counts how many found an
	// existing representative.
	Lookups, Hits uint64
}

type cell struct{ x, y int64 }

// NewTable returns a table with the given tolerance.
func NewTable(tol float64) *Table {
	t := &Table{Tol: tol, buckets: make(map[cell][]complex128)}
	if tol > 0 {
		s := 1 / math.Sqrt2
		for _, v := range []complex128{0, 1, -1, 1i, -1i,
			complex(s, 0), complex(-s, 0), complex(0, s), complex(0, -s)} {
			t.insert(v)
		}
	}
	return t
}

func (t *Table) cellOf(v complex128) cell {
	return cell{quantize(real(v), t.Tol), quantize(imag(v), t.Tol)}
}

// quantize maps x to its grid cell ⌊x/tol⌋, folding the unbounded quotient
// into int64 range with a wrap that preserves adjacency away from the
// (astronomically rare) fold boundary. A fold can only cause a missed merge
// — the Near check on every candidate keeps lookups correct.
func quantize(x, tol float64) int64 {
	q := math.Floor(x / tol)
	const lim = 1 << 56
	if q >= -lim && q <= lim {
		return int64(q)
	}
	folded := math.Remainder(q, 2*lim)
	return int64(folded)
}

func (t *Table) insert(v complex128) {
	c := t.cellOf(v)
	t.buckets[c] = append(t.buckets[c], v)
}

// Lookup returns the canonical representative for v: the *nearest*
// previously interned value within Tol of v (component-wise admission,
// squared-Euclidean tie-break), inserting v as a new representative if none
// qualifies. Nearest-wins matters near cell boundaries: fixed scan order
// used to keep the first in-tolerance candidate, which could canonicalize v
// past a strictly closer — even pre-seeded exact — representative. An exact
// match short-circuits the scan. With Tol = 0 it returns v unchanged.
func (t *Table) Lookup(v complex128) complex128 {
	if t.Tol <= 0 {
		return v
	}
	t.Lookups++
	c := t.cellOf(v)
	var best complex128
	bestDist := math.Inf(1)
	found := false
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for _, w := range t.buckets[cell{c.x + dx, c.y + dy}] {
				if !Near(v, w, t.Tol) {
					continue
				}
				if w == v { // exact representative: no closer candidate exists
					t.Hits++
					return w
				}
				dr, di := real(v)-real(w), imag(v)-imag(w)
				if d := dr*dr + di*di; d < bestDist {
					best, bestDist, found = w, d, true
				}
			}
		}
	}
	if found {
		t.Hits++
		return best
	}
	t.insert(v)
	return v
}

// Size returns the number of distinct representatives stored.
func (t *Table) Size() int {
	n := 0
	for _, b := range t.buckets {
		n += len(b)
	}
	return n
}

// Reset drops all interned values (keeping the seeds).
func (t *Table) Reset() {
	t.buckets = make(map[cell][]complex128)
	t.Lookups, t.Hits = 0, 0
	if t.Tol > 0 {
		s := 1 / math.Sqrt2
		for _, v := range []complex128{0, 1, -1, 1i, -1i,
			complex(s, 0), complex(-s, 0), complex(0, s), complex(0, -s)} {
			t.insert(v)
		}
	}
}

// Near reports whether a and b agree within tol in both components
// (exact equality for tol = 0).
func Near(a, b complex128, tol float64) bool {
	if tol <= 0 {
		return a == b
	}
	return math.Abs(real(a)-real(b)) <= tol && math.Abs(imag(a)-imag(b)) <= tol
}
