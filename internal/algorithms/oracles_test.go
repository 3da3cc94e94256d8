package algorithms

import (
	"math"
	"testing"

	"repro/internal/dense"
)

func TestDeutschJozsaBalanced(t *testing.T) {
	n := 5
	c := DeutschJozsa(n, 0b10110)
	s := dense.New(n + 1)
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	// Balanced oracle: the input register is never |0…0⟩.
	p0 := 0.0
	for a := 0; a < 2; a++ { // ancilla free
		p0 += s.Probability(uint64(a))
	}
	if p0 > 1e-12 {
		t.Fatalf("balanced oracle measured as constant with P = %v", p0)
	}
	// In fact BV-style: the input register equals the mask with certainty.
	pMask := 0.0
	for a := 0; a < 2; a++ {
		pMask += s.Probability(0b10110<<1 | uint64(a))
	}
	if math.Abs(pMask-1) > 1e-12 {
		t.Fatalf("P(mask) = %v", pMask)
	}
}

func TestDeutschJozsaConstant(t *testing.T) {
	n := 4
	c := DeutschJozsa(n, 0)
	s := dense.New(n + 1)
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	p0 := 0.0
	for a := 0; a < 2; a++ {
		p0 += s.Probability(uint64(a))
	}
	if math.Abs(p0-1) > 1e-12 {
		t.Fatalf("constant oracle: P(0…0) = %v, want 1", p0)
	}
}

func TestBernsteinVaziraniRecoversSecret(t *testing.T) {
	n := 6
	for _, secret := range []uint64{0, 1, 0b101010, 0b111111} {
		c := BernsteinVazirani(n, secret)
		s := dense.New(n + 1)
		if err := s.Run(c); err != nil {
			t.Fatal(err)
		}
		p := 0.0
		for a := 0; a < 2; a++ {
			p += s.Probability(secret<<1 | uint64(a))
		}
		if math.Abs(p-1) > 1e-12 {
			t.Fatalf("secret %b recovered with P = %v", secret, p)
		}
	}
}

func TestOracleValidation(t *testing.T) {
	for i, f := range []func(){
		func() { DeutschJozsa(0, 0) },
		func() { DeutschJozsa(2, 4) },
		func() { BernsteinVazirani(2, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
