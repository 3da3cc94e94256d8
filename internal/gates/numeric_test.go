package gates

import (
	"math"
	"math/cmplx"
	"testing"
)

// mulC multiplies 2×2 complex matrices.
func mulC(a, b [2][2]complex128) [2][2]complex128 {
	var o [2][2]complex128
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			o[i][j] = a[i][0]*b[0][j] + a[i][1]*b[1][j]
		}
	}
	return o
}

func unitaryC(u [2][2]complex128) bool {
	adj := [2][2]complex128{
		{cmplx.Conj(u[0][0]), cmplx.Conj(u[1][0])},
		{cmplx.Conj(u[0][1]), cmplx.Conj(u[1][1])},
	}
	p := mulC(u, adj)
	return cmplx.Abs(p[0][0]-1) < 1e-12 && cmplx.Abs(p[1][1]-1) < 1e-12 &&
		cmplx.Abs(p[0][1]) < 1e-12 && cmplx.Abs(p[1][0]) < 1e-12
}

func TestParametricGatesAreUnitary(t *testing.T) {
	for _, theta := range []float64{0, 0.1, -1.7, math.Pi, 2.5} {
		for _, mk := range []func(float64) [2][2]complex128{RZ, RX, RY, Phase} {
			if !unitaryC(mk(theta)) {
				t.Fatalf("parametric gate at θ=%v not unitary", theta)
			}
		}
	}
	if !unitaryC(U3(0.3, 1.1, -0.7)) {
		t.Fatal("U3 not unitary")
	}
}

func TestU3SpecialCases(t *testing.T) {
	// U3(0, 0, λ) = P(λ).
	lambda := 0.83
	u := U3(0, 0, lambda)
	p := Phase(lambda)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(u[i][j]-p[i][j]) > 1e-12 {
				t.Fatalf("U3(0,0,λ) ≠ P(λ) at [%d][%d]", i, j)
			}
		}
	}
	// U3(π, 0, π) = X.
	x := U3(math.Pi, 0, math.Pi)
	xc := X.Complex()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(x[i][j]-xc[i][j]) > 1e-12 {
				t.Fatalf("U3(π,0,π) ≠ X at [%d][%d]: %v vs %v", i, j, x[i][j], xc[i][j])
			}
		}
	}
	// U3(π/2, φ, λ) column norms (u2 flavour via Numeric).
	u2, err := Numeric("u", []float64{math.Pi / 2, 0.2, -0.4})
	if err != nil {
		t.Fatal(err)
	}
	if !unitaryC(u2) {
		t.Fatal("u(π/2, φ, λ) not unitary")
	}
}

func TestRotationComposition(t *testing.T) {
	// Rz(a)·Rz(b) = Rz(a+b).
	a, b := 0.4, -1.3
	lhs := mulC(RZ(a), RZ(b))
	rhs := RZ(a + b)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(lhs[i][j]-rhs[i][j]) > 1e-12 {
				t.Fatal("Rz composition broken")
			}
		}
	}
	// Rx(θ) = H·Rz(θ)·H.
	h := H.Complex()
	conj := mulC(mulC(h, RZ(0.9)), h)
	rx := RX(0.9)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(conj[i][j]-rx[i][j]) > 1e-12 {
				t.Fatalf("H·Rz·H ≠ Rx at [%d][%d]", i, j)
			}
		}
	}
}

func TestIsExact(t *testing.T) {
	for _, name := range []string{"h", "x", "t", "sdg", "sx"} {
		if _, ok := Exact(name); !ok {
			t.Fatalf("%s not reported exact", name)
		}
	}
	for _, name := range []string{"rz", "u", "p", "nonsense"} {
		if _, ok := Exact(name); ok {
			t.Fatalf("%s wrongly reported exact", name)
		}
	}
}
