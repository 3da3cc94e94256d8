package circuit

import (
	"strings"
	"testing"
)

func TestBuilderProducesExpectedGates(t *testing.T) {
	c := New("t", 3)
	c.H(0).X(1).S(1).Sdg(2).T(0).Tdg(1).CX(0, 1).CCX(0, 1, 2).
		P(0.75, 0).CP(0.1, 0, 2).CRz(0.2, 1, 0)
	wantNames := []string{"h", "x", "s", "sdg", "t", "tdg", "x", "x", "p", "p", "rz"}
	if c.Len() != len(wantNames) {
		t.Fatalf("gate count %d, want %d", c.Len(), len(wantNames))
	}
	for i, want := range wantNames {
		if c.Gates[i].Name != want {
			t.Fatalf("gate %d name %q, want %q", i, c.Gates[i].Name, want)
		}
	}
	if len(c.Gates[7].Controls) != 2 {
		t.Fatalf("ccx has %d controls", len(c.Gates[7].Controls))
	}
}

func TestMCXAndMCZ(t *testing.T) {
	c := New("mc", 5)
	c.Append(Gate{Name: "x", Target: 4,
		Controls: []Control{{Qubit: 0}, {Qubit: 1}, {Qubit: 2}, {Qubit: 3}}})
	c.MCZ([]int{0, 1}, 3)
	if len(c.Gates[0].Controls) != 4 || c.Gates[0].Name != "x" {
		t.Fatalf("mcx malformed: %v", c.Gates[0])
	}
	if len(c.Gates[1].Controls) != 2 || c.Gates[1].Name != "z" {
		t.Fatalf("mcz malformed: %v", c.Gates[1])
	}
}

func TestValidationPanics(t *testing.T) {
	cases := []func(){
		func() { New("n", 0) },
		func() { New("n", 2).X(2) },
		func() { New("n", 2).CX(0, 2) },
		func() { New("n", 2).CX(1, 1) },
		func() {
			New("n", 2).Append(Gate{Name: "x", Target: 0, Controls: []Control{{Qubit: -1}}})
		},
	}
	for i, f := range cases {
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

func TestCountByName(t *testing.T) {
	a := New("a", 2)
	a.H(0).H(1).T(0).CX(0, 1)
	counts := a.CountByName()
	if counts["h"] != 2 || counts["t"] != 1 || counts["x"] != 1 {
		t.Fatalf("counts %v", counts)
	}
}

func TestGateString(t *testing.T) {
	g := Gate{Name: "x", Target: 2, Controls: []Control{{Qubit: 0}, {Qubit: 1, Neg: true}}}
	s := g.String()
	for _, want := range []string{"x", "c0", "!c1", "q2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("gate string %q missing %q", s, want)
		}
	}
	gp := Gate{Name: "rz", Target: 0, Params: []float64{0.5}}
	if !strings.Contains(gp.String(), "0.5") {
		t.Fatalf("parametric gate string %q", gp.String())
	}
}

func TestValidateCatchesBadGates(t *testing.T) {
	c := New("ok", 2)
	c.H(0)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Circuit{N: 2, Gates: []Gate{
		{Name: "x", Target: 1, Controls: []Control{{Qubit: 1}}},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("control == target accepted")
	}
	bad2 := &Circuit{N: 2, Gates: []Gate{{Name: "x", Target: 5}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}
