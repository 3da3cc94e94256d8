package alg_test

import (
	"fmt"

	"repro/internal/alg"
)

// The canonical representation makes value equality structural: the same
// complex number computed along different routes has the same five integers.
func ExampleCanonD() {
	// (1/√2)·(1/√2) computed as a product …
	a := alg.DInvSqrt2.Mul(alg.DInvSqrt2)
	// … equals 1/2 written directly.
	fmt.Println(a.Equal(alg.DHalf))
	fmt.Println(a)
	// Output:
	// true
	// (1/√2)^2·(0·ω³ + 0·ω² + 0·ω + 1)
}

// Example 6 of the paper: √2 has representations with k ∈ {−1, 0, 1}; the
// canonical one uses the smallest denominator exponent k = −1.
func ExampleCanonD_example6() {
	fmt.Println(alg.CanonD(alg.NewZomega(0, 0, 0, 2), 1))  // (1/√2)¹·2
	fmt.Println(alg.CanonD(alg.NewZomega(-1, 0, 1, 0), 0)) // ω − ω³
	// Output:
	// (1/√2)^-1·(0·ω³ + 0·ω² + 0·ω + 1)
	// (1/√2)^-1·(0·ω³ + 0·ω² + 0·ω + 1)
}

// Example 8 of the paper: the inverse of 1 + i√2 in Q[ω], as 1/(1 + i√2).
func ExampleQ_Div() {
	z := alg.QFromD(alg.DOne.Add(alg.DI.Mul(alg.DSqrt2)))
	inv := alg.QOne.Div(z)
	fmt.Println(inv)
	fmt.Println(z.Mul(inv).IsOne())
	// Output:
	// (-1·ω³ + 0·ω² + -1·ω + 1)/3
	// true
}

// GCDs exist in D[ω] because Z[ω] is a Euclidean ring.
func ExampleGCDZ() {
	g := alg.NewZomega(1, 1, 0, 2)
	a := alg.NewZomega(3, 0, -1, 2).Mul(g)
	b := alg.NewZomega(0, 1, 1, 1).Mul(g)
	gcd := alg.GCDZ(a, b)
	_, r1 := alg.QuoRem(a, gcd)
	_, r2 := alg.QuoRem(b, gcd)
	fmt.Println(r1.IsZero(), r2.IsZero())
	// Output:
	// true true
}
