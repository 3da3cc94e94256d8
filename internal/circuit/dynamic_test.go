package circuit

import "testing"

func TestMeasureResetCondAppend(t *testing.T) {
	c := New("t", 2).H(0).
		Append(Gate{Name: OpMeasure, Target: 0, Clbit: 0}).
		Append(Gate{Name: OpReset, Target: 1})
	c.Append(Gate{Name: "x", Target: 1, Cond: &Cond{Offset: 0, Width: 1, Value: 1}})
	if c.Cbits != 1 {
		t.Fatalf("Cbits = %d, want 1", c.Cbits)
	}
	if got := c.Gates[1].String(); got != "measure q0 -> c0" {
		t.Errorf("measure String = %q", got)
	}
	if got := c.Gates[3].String(); got != "if(c[0:1]==1) x q1" {
		t.Errorf("cond String = %q", got)
	}
	c.Append(Gate{Name: OpMeasure, Target: 1, Clbit: 5})
	if c.Cbits != 6 {
		t.Errorf("Cbits = %d after measure into c5, want 6", c.Cbits)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestCondHolds(t *testing.T) {
	cd := &Cond{Offset: 1, Width: 2, Value: 0b10}
	for creg, want := range map[uint64]bool{
		0b100: true, 0b101: true, 0b1100: true, 0b1000: false, 0b010: false, 0: false,
	} {
		if got := cd.Holds(creg); got != want {
			t.Errorf("Holds(%b) = %v, want %v", creg, got, want)
		}
	}
}

func TestDynamicAndTrailingMeasures(t *testing.T) {
	cases := []struct {
		name     string
		build    func() *Circuit
		dynamic  bool
		trailing int // expected TrailingMeasures index
	}{
		{"unitary", func() *Circuit { return New("c", 2).H(0).CX(0, 1) }, false, 2},
		{"trailing-measures", func() *Circuit {
			return New("c", 2).H(0).CX(0, 1).
				Append(Gate{Name: OpMeasure, Target: 0, Clbit: 0}).
				Append(Gate{Name: OpMeasure, Target: 1, Clbit: 1})
		}, false, 2},
		{"mid-circuit-measure", func() *Circuit {
			return New("c", 2).H(0).Append(Gate{Name: OpMeasure, Target: 0, Clbit: 0}).X(1)
		}, true, 3},
		{"reset", func() *Circuit { return New("c", 2).H(0).Append(Gate{Name: OpReset, Target: 0}) }, true, 2},
		{"conditioned", func() *Circuit {
			c := New("c", 2).H(0).Append(Gate{Name: OpMeasure, Target: 0, Clbit: 0})
			return c.Append(Gate{Name: "x", Target: 1, Cond: &Cond{Offset: 0, Width: 1, Value: 1}})
		}, true, 3},
	}
	for _, tc := range cases {
		c := tc.build()
		if got := c.Dynamic(); got != tc.dynamic {
			t.Errorf("%s: Dynamic = %v, want %v", tc.name, got, tc.dynamic)
		}
		if got := c.TrailingMeasures(); got != tc.trailing {
			t.Errorf("%s: TrailingMeasures = %d, want %d", tc.name, got, tc.trailing)
		}
	}
}

func TestUnitaryPrefix(t *testing.T) {
	c := New("c", 2).H(0).CX(0, 1).
		Append(Gate{Name: OpMeasure, Target: 0, Clbit: 0}).
		Append(Gate{Name: OpMeasure, Target: 1, Clbit: 1})
	p := c.UnitaryPrefix()
	if p.Len() != 2 || !p.IsUnitary() {
		t.Fatalf("UnitaryPrefix kept %d gates", p.Len())
	}
	if p.N != c.N || p.Cbits != c.Cbits {
		t.Error("UnitaryPrefix dropped shape fields")
	}
	u := New("c", 2).H(0)
	if u.UnitaryPrefix() != u {
		t.Error("measure-free circuit should return itself")
	}
}

func TestFingerprintCoversDynamicOps(t *testing.T) {
	base := func() *Circuit { return New("c", 2).H(0).CX(0, 1) }
	a := Fingerprint(base())
	// The measure-free twin must not collide with any measured variant.
	if Fingerprint(base().Append(Gate{Name: OpMeasure, Target: 0, Clbit: 0})) == a {
		t.Error("trailing measure collided with measure-free twin")
	}
	mid := New("c", 2).H(0).Append(Gate{Name: OpMeasure, Target: 0, Clbit: 0}).CX(0, 1)
	if Fingerprint(mid) == a {
		t.Error("mid-circuit measure collided with measure-free twin")
	}
	toBit0 := base().Append(Gate{Name: OpMeasure, Target: 0, Clbit: 0})
	toBit1 := base().Append(Gate{Name: OpMeasure, Target: 0, Clbit: 1})
	if Fingerprint(toBit0) == Fingerprint(toBit1) {
		t.Error("measure destination not hashed")
	}
	cond := func(v uint64) [32]byte {
		c := New("c", 2).H(0).Append(Gate{Name: OpMeasure, Target: 0, Clbit: 0})
		c.Append(Gate{Name: "x", Target: 1, Cond: &Cond{Offset: 0, Width: 1, Value: v}})
		return Fingerprint(c)
	}
	if cond(0) == cond(1) {
		t.Error("condition value not hashed")
	}
	uncond := New("c", 2).H(0).Append(Gate{Name: OpMeasure, Target: 0, Clbit: 0}).X(1)
	if cond(1) == Fingerprint(uncond) {
		t.Error("conditioned gate collided with unconditioned twin")
	}
	// Determinism.
	if cond(1) != cond(1) {
		t.Error("fingerprint not deterministic with dynamic ops")
	}
}
