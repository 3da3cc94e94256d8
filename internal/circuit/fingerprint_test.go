package circuit

import "testing"

func TestFingerprintStableAndSensitive(t *testing.T) {
	build := func() *Circuit {
		return New("bell", 2).H(0).CX(0, 1)
	}
	a, b := Fingerprint(build()), Fingerprint(build())
	if a != b {
		t.Fatal("fingerprint not deterministic")
	}
	if Fingerprint(New("bell", 2).H(0).CX(1, 0)) == a {
		t.Error("reversed CNOT collided")
	}
	if Fingerprint(New("bell", 3).H(0).CX(0, 1)) == a {
		t.Error("extra qubit collided")
	}
	if Fingerprint(New("bell", 2).H(0)) == a {
		t.Error("prefix circuit collided")
	}
	if Fingerprint(New("other-name", 2).H(0).CX(0, 1)) != a {
		t.Error("circuit name is presentational and must not affect the fingerprint")
	}
	rz := func(theta float64) *Circuit {
		return New("rz", 2).Append(Gate{Name: "rz", Target: 0, Params: []float64{theta}})
	}
	if Fingerprint(rz(0.5)) == Fingerprint(rz(0.5000000001)) {
		t.Error("parameter bits collided")
	}
}

// mixedCircuit returns n ops cycling through every part of the encoding:
// controls listed out of order, parameters, measurements and conditions.
func mixedCircuit(n int) *Circuit {
	c := New("mixed", 4)
	for i := 0; c.Len() < n; i++ {
		switch i % 5 {
		case 0:
			c.CCX(2, 0, 3)
		case 1:
			c.Append(Gate{Name: "rz", Target: 1, Params: []float64{float64(i)}})
		case 2:
			c.Append(Gate{Name: "u", Target: 0, Params: []float64{1, 2, 3},
				Cond: &Cond{Offset: 0, Width: 2, Value: 1}})
		case 3:
			c.Append(Gate{Name: OpMeasure, Target: i % 4, Clbit: 1})
		default:
			c.Append(Gate{Name: "x", Target: 1, Controls: []Control{{Qubit: 3, Neg: true}, {Qubit: 0}, {Qubit: 2}}})
		}
	}
	return c
}

// TestFingerprintAllocationsConstant is the hashing allocation gate: an op's
// encoding goes through reusable buffers, so Fingerprint and Chain allocate
// the same few objects (the hasher and its buffers and, for Chain, the link
// slice) whatever the gate count.
func TestFingerprintAllocationsConstant(t *testing.T) {
	small, large := mixedCircuit(10), mixedCircuit(5000)
	for _, tc := range []struct {
		name    string
		fn      func(*Circuit)
		ceiling float64
	}{
		{"Fingerprint", func(c *Circuit) { Fingerprint(c) }, 4},
		{"Chain", func(c *Circuit) { Chain(c) }, 5},
	} {
		s := testing.AllocsPerRun(20, func() { tc.fn(small) })
		l := testing.AllocsPerRun(20, func() { tc.fn(large) })
		if s != l || l > tc.ceiling {
			t.Errorf("%s: %.0f allocations at %d gates, %.0f at %d; want equal and at most %.0f",
				tc.name, s, small.Len(), l, large.Len(), tc.ceiling)
		}
	}
}
