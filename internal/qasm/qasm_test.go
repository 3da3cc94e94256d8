package qasm

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dense"
)

const bellSrc = `
OPENQASM 2.0;
include "qelib1.inc";
// Bell pair preparation
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
`

func TestParseBell(t *testing.T) {
	c, err := Parse(bellSrc, "bell")
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 2 || c.Len() != 4 || c.Cbits != 2 {
		t.Fatalf("parsed %d qubits, %d ops, %d clbits", c.N, c.Len(), c.Cbits)
	}
	if c.Gates[0].Name != "h" || c.Gates[0].Target != 0 {
		t.Fatalf("gate 0 = %v", c.Gates[0])
	}
	if c.Gates[1].Name != "x" || len(c.Gates[1].Controls) != 1 || c.Gates[1].Controls[0].Qubit != 0 {
		t.Fatalf("gate 1 = %v", c.Gates[1])
	}
	// measure q -> c broadcasts element-wise into the positioned suffix.
	for i, want := range []circuit.Gate{
		{Name: circuit.OpMeasure, Target: 0, Clbit: 0},
		{Name: circuit.OpMeasure, Target: 1, Clbit: 1},
	} {
		g := c.Gates[2+i]
		if g.Name != want.Name || g.Target != want.Target || g.Clbit != want.Clbit {
			t.Fatalf("op %d = %v, want %v", 2+i, g, want)
		}
	}
	s := dense.New(2)
	if err := s.Run(c.UnitaryPrefix()); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(3)-0.5) > 1e-12 {
		t.Fatalf("bell probabilities wrong: %v", s.Amp)
	}
}

func TestParseExpressionsAndBroadcast(t *testing.T) {
	src := `OPENQASM 2.0;
qreg q[3];
h q;
rz(pi/4) q[1];
rz(-pi) q[0];
rz(2*pi/8 + 1.5e-1) q[2];
u2(0, pi) q[0];
cp(pi^2/4) q[0],q[2];
ccx q[0],q[1],q[2];
barrier q;
`
	c, err := Parse(src, "expr")
	if err != nil {
		t.Fatal(err)
	}
	// h broadcast over 3 qubits + 3 rz + u2 + cp + ccx = 9 gates.
	if c.Len() != 9 {
		t.Fatalf("got %d gates, want 9: %v", c.Len(), c.Gates)
	}
	if got := c.Gates[3].Params[0]; math.Abs(got-math.Pi/4) > 1e-15 {
		t.Fatalf("rz(pi/4) parsed as %v", got)
	}
	if got := c.Gates[4].Params[0]; math.Abs(got+math.Pi) > 1e-15 {
		t.Fatalf("rz(-pi) parsed as %v", got)
	}
	if got := c.Gates[5].Params[0]; math.Abs(got-(math.Pi/4+0.15)) > 1e-15 {
		t.Fatalf("rz(2*pi/8 + 1.5e-1) parsed as %v", got)
	}
	if got := c.Gates[7].Params[0]; math.Abs(got-math.Pi*math.Pi/4) > 1e-12 {
		t.Fatalf("cp(pi^2/4) parsed as %v", got)
	}
}

func TestParseMultipleRegisters(t *testing.T) {
	src := `OPENQASM 2.0;
qreg a[2];
qreg b[3];
x a[1];
cx a[0],b[2];
`
	c, err := Parse(src, "regs")
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 5 {
		t.Fatalf("N = %d, want 5", c.N)
	}
	if c.Gates[0].Target != 1 {
		t.Fatalf("x a[1] lowered to target %d", c.Gates[0].Target)
	}
	if c.Gates[1].Controls[0].Qubit != 0 || c.Gates[1].Target != 4 {
		t.Fatalf("cx a[0],b[2] lowered wrong: %v", c.Gates[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`OPENQASM 2.0; x q[0];`,                     // unknown register
		`OPENQASM 2.0; qreg q[2]; x q[5];`,          // index out of range
		`OPENQASM 2.0; qreg q[2]; frobnicate q[0];`, // unknown gate
		`OPENQASM 2.0; qreg q[2]; rz q[0];`,         // missing parameter
		`OPENQASM 2.0; qreg q[2]; cx q[0];`,         // missing operand
		`OPENQASM 2.0; qreg q[0];`,                  // zero-size register
		`OPENQASM 2.0; qreg q[2]; rz(pi/) q[0];`,    // bad expression
		`OPENQASM 2.0; qreg q[2]; h q[0]`,           // missing semicolon at EOF
		// A gate applied to one qubit twice.
		`OPENQASM 2.0; qreg q[2]; cx q[0],q[0];`,
		`OPENQASM 2.0; qreg q[2]; swap q[0],q[0];`,
		`OPENQASM 2.0; qreg q[3]; ccx q[0],q[1],q[1];`,
		`OPENQASM 2.0; qreg q[3]; ccx q[0],q[0],q[1];`,
		`OPENQASM 2.0; qreg q[3]; cswap q[0],q[1],q[1];`,
		`OPENQASM 2.0; qreg q[2]; gate g a,b { cx a,b; } g q[0],q[0];`,
	}
	for _, src := range cases {
		if _, err := Parse(src, "bad"); err == nil {
			t.Fatalf("no error for %q", src)
		}
	}
}

func TestWriteRoundTrip(t *testing.T) {
	c := circuit.New("rt", 3)
	c.H(0).CX(0, 1).T(2).CCX(0, 1, 2).
		Append(circuit.Gate{Name: "rz", Target: 1, Params: []float64{0.25}}).CP(0.5, 0, 2).
		CX(0, 2).CX(2, 0).CX(0, 2)
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(sb.String(), "rt")
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, sb.String())
	}
	if c2.N != c.N || c2.Len() != c.Len() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", c2.N, c2.Len(), c.N, c.Len())
	}
	// Semantically identical: same dense evolution.
	s1, s2 := dense.New(3), dense.New(3)
	if err := s1.Run(c); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(c2); err != nil {
		t.Fatal(err)
	}
	if d := s1.Distance(s2); d > 1e-12 {
		t.Fatalf("round trip changed semantics, distance %v", d)
	}
}

func TestWriteRejectsInexpressible(t *testing.T) {
	c := circuit.New("neg", 2)
	c.Append(circuit.Gate{Name: "x", Target: 1, Controls: []circuit.Control{{Qubit: 0, Neg: true}}})
	var sb strings.Builder
	if err := Write(&sb, c); err == nil {
		t.Fatal("negative control written without error")
	}
	c2 := circuit.New("mcx", 4)
	c2.Append(circuit.Gate{Name: "x", Target: 3,
		Controls: []circuit.Control{{Qubit: 0}, {Qubit: 1}, {Qubit: 2}}})
	if err := Write(&sb, c2); err == nil {
		t.Fatal("3-control gate written without error")
	}
}

// TestExpressibleAgreesWithWrite: Expressible accepts exactly the one-gate
// circuits Write can spell, for every gate name the simulator knows, 0–3
// controls and every negative/positive control pattern.
func TestExpressibleAgreesWithWrite(t *testing.T) {
	params := map[string][]float64{"rz": {0.5}, "rx": {0.5}, "ry": {0.5}, "p": {0.5}, "u1": {0.5}, "phase": {0.5}, "u": {0.1, 0.2, 0.3}, "u3": {0.1, 0.2, 0.3}}
	names := []string{"id", "i", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "v", "sxdg", "vdg", "rz", "rx", "ry", "p", "u1", "phase", "u", "u3"}
	accepted := 0
	for _, name := range names {
		for k := 0; k <= 3; k++ {
			for neg := 0; neg < 1<<k; neg++ {
				g := circuit.Gate{Name: name, Target: k, Params: params[name]}
				for i := 0; i < k; i++ {
					g.Controls = append(g.Controls, circuit.Control{Qubit: i, Neg: neg>>i&1 == 1})
				}
				c := circuit.New("one", k+1).Append(g)
				werr := Write(io.Discard, c)
				if got := Expressible(g); got != (werr == nil) {
					t.Errorf("%s: Expressible = %v, Write error = %v", g.String(), got, werr)
				}
				if werr == nil {
					accepted++
				}
			}
		}
	}
	// 22 bare gates, cx/cz/cy/ch/cu1/crz and ccx.
	if accepted != len(names)+7 {
		t.Errorf("%d one-gate circuits writable, want %d", accepted, len(names)+7)
	}
	ops := circuit.New("m", 1).
		Append(circuit.Gate{Name: circuit.OpMeasure, Target: 0, Clbit: 0}).
		Append(circuit.Gate{Name: circuit.OpReset, Target: 0})
	for _, g := range ops.Gates {
		if !Expressible(g) {
			t.Errorf("%s: not Expressible", g.String())
		}
	}
}

// TestMeasureIsPositioned is the regression test for the side-list bug: the
// parser used to record measures out-of-band, so a gate written after a
// measurement was silently reordered in front of it. The measure must now
// appear in the gate list at its source position.
func TestMeasureIsPositioned(t *testing.T) {
	src := `OPENQASM 2.0;
qreg q[2];
creg c[1];
h q[0];
measure q[0] -> c[0];
x q[1];
`
	c, err := Parse(src, "mid")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"h", circuit.OpMeasure, "x"}
	if c.Len() != len(want) {
		t.Fatalf("parsed %d ops, want %d: %v", c.Len(), len(want), c.Gates)
	}
	for i, name := range want {
		if c.Gates[i].Name != name {
			t.Fatalf("op %d = %q, want %q (measure lost its position)", i, c.Gates[i].Name, name)
		}
	}
	if !c.Dynamic() {
		t.Error("mid-circuit measurement not flagged as dynamic")
	}
}

func TestParseResetAndIf(t *testing.T) {
	src := `OPENQASM 2.0;
qreg q[3];
creg c0[1];
creg c1[2];
h q[0];
measure q[0] -> c0[0];
reset q[0];
if(c0==1) x q[1];
if(c1==2) measure q[2] -> c1[0];
if(c0==0) reset q;
`
	c, err := Parse(src, "dyn")
	if err != nil {
		t.Fatal(err)
	}
	if c.Cbits != 3 {
		t.Fatalf("Cbits = %d, want 3", c.Cbits)
	}
	// h, measure, reset, cond-x, cond-measure, 3× cond-reset (broadcast).
	if c.Len() != 8 {
		t.Fatalf("parsed %d ops: %v", c.Len(), c.Gates)
	}
	if !c.Gates[2].IsReset() || c.Gates[2].Target != 0 || c.Gates[2].Cond != nil {
		t.Fatalf("op 2 = %v, want unconditional reset q0", c.Gates[2])
	}
	if cd := c.Gates[3].Cond; cd == nil || *cd != (circuit.Cond{Offset: 0, Width: 1, Value: 1}) {
		t.Fatalf("op 3 cond = %v", c.Gates[3].Cond)
	}
	// c1 is the second register: offset 1, width 2.
	if cd := c.Gates[4].Cond; cd == nil || *cd != (circuit.Cond{Offset: 1, Width: 2, Value: 2}) ||
		!c.Gates[4].IsMeasure() || c.Gates[4].Clbit != 1 {
		t.Fatalf("op 4 = %v cond %v", c.Gates[4], c.Gates[4].Cond)
	}
	for i := 5; i < 8; i++ {
		if !c.Gates[i].IsReset() || c.Gates[i].Cond == nil {
			t.Fatalf("op %d = %v, want conditioned reset", i, c.Gates[i])
		}
	}
}

func TestParseDynamicErrors(t *testing.T) {
	cases := []string{
		`OPENQASM 2.0; qreg q[2]; creg c[1]; measure q -> c;`,           // size mismatch
		`OPENQASM 2.0; qreg q[2]; measure q[0] -> c[0];`,                // unknown creg
		`OPENQASM 2.0; qreg q[2]; creg c[1]; measure q[0] -> q[1];`,     // quantum dest
		`OPENQASM 2.0; qreg q[2]; creg c[1]; if(c==2) x q[0];`,          // value too wide
		`OPENQASM 2.0; qreg q[2]; creg c[1]; if(d==0) x q[0];`,          // unknown register
		`OPENQASM 2.0; qreg q[2]; creg c[1]; if(c) x q[0];`,             // missing ==
		`OPENQASM 2.0; qreg q[2]; creg c[1]; if(c==0) if(c==0) x q[0];`, // nested if
		`OPENQASM 2.0; qreg q[2]; creg c[1]; reset c[0];`,               // reset classical
	}
	for _, src := range cases {
		if _, err := Parse(src, "bad"); err == nil {
			t.Fatalf("no error for %q", src)
		}
	}
}

func TestWriteDynamicRoundTrip(t *testing.T) {
	src := `OPENQASM 2.0;
qreg q[3];
creg c0[1];
creg c1[1];
x q[0];
h q[1];
cx q[1],q[2];
cx q[0],q[1];
h q[0];
measure q[0] -> c0[0];
measure q[1] -> c1[0];
if(c1==1) x q[2];
if(c0==1) z q[2];
reset q[0];
`
	c, err := Parse(src, "teleport")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(sb.String(), "teleport")
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, sb.String())
	}
	// The round trip must preserve the op sequence exactly — same
	// fingerprint, conditions and measure destinations included.
	if circuit.Fingerprint(c) != circuit.Fingerprint(c2) {
		t.Fatalf("round trip changed the circuit:\n%s", sb.String())
	}
}

const gateDefSrc = `
OPENQASM 2.0;
qreg q[3];
gate majority a,b,c
{
  cx c,b;
  cx c,a;
  ccx a,b,c;
}
gate rot(theta) t { rz(theta/2) t; h t; rz(-theta/2) t; }
gate nested(x) a,b { rot(x) a; majority a,b,a; }
majority q[0],q[1],q[2];
rot(pi) q[1];
`

// TestGateDefinitions: user-defined gates macro-expand with bound
// parameters and qubit arguments.
func TestGateDefinitions(t *testing.T) {
	c, err := Parse(gateDefSrc, "defs")
	if err != nil {
		t.Fatal(err)
	}
	// majority → cx, cx, ccx (3 gates); rot(pi) → rz, h, rz (3 gates).
	if c.Len() != 6 {
		t.Fatalf("expanded to %d gates: %v", c.Len(), c.Gates)
	}
	if c.Gates[2].Name != "x" || len(c.Gates[2].Controls) != 2 {
		t.Fatalf("ccx expansion wrong: %v", c.Gates[2])
	}
	if c.Gates[3].Name != "rz" || math.Abs(c.Gates[3].Params[0]-math.Pi/2) > 1e-15 {
		t.Fatalf("parameter binding wrong: %v", c.Gates[3])
	}
	if c.Gates[5].Params[0] != -math.Pi/2 {
		t.Fatalf("negated bound parameter wrong: %v", c.Gates[5])
	}
	// Semantics check against a hand-expanded circuit.
	manual := circuit.New("manual", 3)
	manual.CX(2, 1).CX(2, 0).CCX(0, 1, 2).
		Append(circuit.Gate{Name: "rz", Target: 1, Params: []float64{math.Pi / 2}})
	manual.H(1).Append(circuit.Gate{Name: "rz", Target: 1, Params: []float64{-math.Pi / 2}})
	s1, s2 := dense.New(3), dense.New(3)
	if err := s1.Run(c); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(manual); err != nil {
		t.Fatal(err)
	}
	if d := s1.Distance(s2); d > 1e-12 {
		t.Fatalf("expansion semantics differ by %v", d)
	}
}

// TestGateDefinitionNesting: definitions may call earlier definitions, with
// the ccx argument aliasing caught by circuit validation.
func TestGateDefinitionNesting(t *testing.T) {
	src := `OPENQASM 2.0;
qreg q[2];
gate double a { h a; h a; }
gate quad a { double a; double a; }
quad q[1];
`
	c, err := Parse(src, "nest")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 {
		t.Fatalf("nested expansion gave %d gates", c.Len())
	}
	for _, g := range c.Gates {
		if g.Name != "h" || g.Target != 1 {
			t.Fatalf("bad expanded gate %v", g)
		}
	}
}

func TestGateDefinitionErrors(t *testing.T) {
	cases := []string{
		`OPENQASM 2.0; qreg q[2]; gate g a { h a; } g q[0],q[1];`,   // arity
		`OPENQASM 2.0; qreg q[2]; gate g(t) a { rz(t) a; } g q[0];`, // missing param
		`OPENQASM 2.0; qreg q[2]; opaque mystery a; mystery q[0];`,  // opaque use
		`OPENQASM 2.0; qreg q[2]; gate g a { h a;`,                  // unterminated
	}
	for _, src := range cases {
		if _, err := Parse(src, "bad"); err == nil {
			t.Fatalf("no error for %q", src)
		}
	}
	// Declaring an opaque gate without using it is fine.
	if _, err := Parse(`OPENQASM 2.0; qreg q[1]; opaque mystery a; h q[0];`, "ok"); err != nil {
		t.Fatal(err)
	}
}

// TestParseErrorTyped pins the satellite contract of the typed error: every
// lexer/parser/lowering failure is a *ParseError extractable with errors.As,
// carrying the 1-based source line, and its rendered string is exactly the
// historical "qasm: line N: …" form.
func TestParseErrorTyped(t *testing.T) {
	cases := []struct {
		name string
		src  string
		line int
	}{
		{"lexer", "OPENQASM 2.0;\nqreg q[1];\nh q[0] @;", 3},
		{"parser", "OPENQASM 2.0;\nqreg q[0];", 2},
		{"unknown register", "OPENQASM 2.0;\nqreg q[1];\nh r[0];", 3},
		{"lowering arity", "OPENQASM 2.0;\nqreg q[2];\n\nh q[0], q[1];", 4},
		{"unsupported gate", "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];", 3},
		{"gatedef opaque", "OPENQASM 2.0;\nqreg q[1];\nopaque mystery a;\nmystery q[0];", 4},
		{"repeated operand", "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];", 3},
		{"repeated gatedef argument", "OPENQASM 2.0;\nqreg q[2];\ngate g a,b { cx a,b; }\ng q[1],q[1];", 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src, tc.name)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v (%T) is not a *ParseError", err, err)
			}
			if pe.Line != tc.line {
				t.Errorf("line = %d, want %d (err: %v)", pe.Line, tc.line, err)
			}
			want := fmt.Sprintf("qasm: line %d: %s", pe.Line, pe.Msg)
			if err.Error() != want {
				t.Errorf("rendered %q, want %q", err.Error(), want)
			}
			if !strings.HasPrefix(err.Error(), fmt.Sprintf("qasm: line %d: ", tc.line)) {
				t.Errorf("rendered %q lacks line prefix", err.Error())
			}
		})
	}
}

// TestParsedSlicesAreCapped: gates share arena chunks for their controls
// and parameters, so each slice must be capped at its length — an append
// to one gate's slice must reallocate, never overwrite the next gate's.
func TestParsedSlicesAreCapped(t *testing.T) {
	c, err := Parse("OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[1];\nccx q[0],q[1],q[2];\nrz(1) q[0];\nu2(2,3) q[1];\ncp(4) q[0],q[2];\n", "capped")
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range c.Gates {
		if cap(g.Controls) != len(g.Controls) || cap(g.Params) != len(g.Params) {
			t.Fatalf("gate %d (%v): controls len %d cap %d, params len %d cap %d",
				i, g, len(g.Controls), cap(g.Controls), len(g.Params), cap(g.Params))
		}
	}
	if grown := append(c.Gates[0].Controls, circuit.Control{Qubit: 2}); len(grown) != 2 {
		t.Fatalf("append gave %v", grown)
	}
	if got := c.Gates[1].Controls; got[0].Qubit != 0 || got[1].Qubit != 1 {
		t.Fatalf("append to gate 0's controls changed gate 1's: %v", got)
	}
}
