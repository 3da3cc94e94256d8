package qasm

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// repeatedOperandPrograms apply a gate to one qubit twice. The reference
// parser panics on most of them and accepts the rest; Parse must reject
// each.
var repeatedOperandPrograms = []string{
	"OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n",
	"OPENQASM 2.0;\nqreg q[2];\nswap q[0],q[0];\n",
	"OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[1];\n",
	"OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[0],q[1];\n",
	"OPENQASM 2.0;\nqreg q[3];\ncswap q[0],q[1],q[1];\n",
	"OPENQASM 2.0;\nqreg q[2];\ngate g a,b { cx a,b; }\ng q[0],q[0];\n",
	"OPENQASM 2.0;\nqreg q[2];\ngate g a,b { h a; h b; }\ng q[1],q[1];\n",
	"OPENQASM 2.0;\nqreg q[2];\ncz q,q;\n",
}

// referenceParse runs the reference parser, turning a panic into an error.
func referenceParse(src string) (c *circuit.Circuit, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("reference parser panicked: %v", r)
		}
	}()
	return refParse(src, "reference")
}

// checkAgainstReference is the differential oracle. Parse must not panic;
// where the reference accepts, Parse must build the same circuit or reject
// a repeated operand; where the reference rejects or panics, Parse must
// reject. Every accepted circuit Write can express must survive
// Write→Parse with its fingerprint and every chain link unchanged.
func checkAgainstReference(t *testing.T, src string) {
	t.Helper()
	c, err := Parse(src, "new")
	if err != nil {
		var pe *ParseError
		if !errors.As(err, &pe) && err.Error() != "qasm: no qreg declared" {
			t.Fatalf("Parse returned an untyped error %v (%T)", err, err)
		}
		if msg := err.Error(); strings.Contains(msg, "program lowers to more than") ||
			strings.Contains(msg, "program expansion takes more than") {
			return // over a budget: the reference has no verdict to compare
		}
	}
	ref, rerr := referenceParse(src)
	switch {
	case errors.Is(rerr, errRefBudget):
	case rerr != nil:
		if err == nil {
			t.Fatalf("reference rejects (%v) but Parse accepts:\n%s", rerr, src)
		}
	case err != nil:
		if !strings.Contains(err.Error(), "more than once") {
			t.Fatalf("reference accepts but Parse rejects: %v\n%s", err, src)
		}
	default:
		if d := circuitDiff(c, ref); d != "" {
			t.Fatalf("Parse and the reference disagree: %s\n%s", d, src)
		}
	}
	if err == nil {
		checkWriteRoundTrip(t, c)
	}
}

// circuitDiff describes the first difference between two circuits' N,
// Cbits and gate lists; "" when they are deep-equal, with parameters
// compared bit for bit so NaN equals itself.
func circuitDiff(a, b *circuit.Circuit) string {
	if a.N != b.N || a.Cbits != b.Cbits || len(a.Gates) != len(b.Gates) {
		return fmt.Sprintf("shape %d/%d/%d vs %d/%d/%d", a.N, a.Cbits, len(a.Gates), b.N, b.Cbits, len(b.Gates))
	}
	if (a.Gates == nil) != (b.Gates == nil) {
		return "nil gate list on one side"
	}
	for i := range a.Gates {
		g, h := a.Gates[i], b.Gates[i]
		same := g.Name == h.Name && g.Target == h.Target && g.Clbit == h.Clbit &&
			reflect.DeepEqual(g.Controls, h.Controls) && reflect.DeepEqual(g.Cond, h.Cond) &&
			len(g.Params) == len(h.Params) && (g.Params == nil) == (h.Params == nil)
		for j := 0; same && j < len(g.Params); j++ {
			same = math.Float64bits(g.Params[j]) == math.Float64bits(h.Params[j])
		}
		if !same {
			return fmt.Sprintf("gate %d: %+v vs %+v", i, g, h)
		}
	}
	return ""
}

// checkWriteRoundTrip re-parses Write's rendering of c and compares the
// fingerprint and every prefix-chain link.
func checkWriteRoundTrip(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	for _, g := range c.Gates {
		for _, v := range g.Params {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return // OpenQASM has no spelling for non-finite angles
			}
		}
	}
	var sb strings.Builder
	if Write(&sb, c) != nil {
		return // not expressible in OpenQASM 2.0
	}
	again, err := Parse(sb.String(), "again")
	if err != nil {
		t.Fatalf("Write output does not parse: %v\n%s", err, sb.String())
	}
	if circuit.Fingerprint(again) != circuit.Fingerprint(c) {
		t.Fatalf("Write→Parse changed the fingerprint\n%s", sb.String())
	}
	want, got := circuit.Chain(c), circuit.Chain(again)
	if len(got) != len(want) {
		t.Fatalf("Write→Parse changed the chain length %d → %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Write→Parse changed chain link %d\n%s", i, sb.String())
		}
	}
}

// parseSeeds is the differential corpus: the testdata programs, every
// program the other tests in this package parse, and the repeated-operand
// programs.
func parseSeeds(t testing.TB) []string {
	files, err := filepath.Glob("testdata/*.qasm")
	if err != nil {
		t.Fatal(err)
	}
	var seeds []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, string(raw))
	}
	seeds = append(seeds, bellSrc, gateDefSrc,
		"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\nif(c==1) x q[1];\nreset q[0];\n",
		"OPENQASM 2.0;\nqreg q[3];\nu2(0,pi) q;\ncp(pi^2/4) q[0],q[2];\ncswap q[2],q[0],q[1];\nbarrier q;\n",
		"OPENQASM 2.0;\nqreg q[1];\ngate g a { g a; }\ng q[0];\n",
		"OPENQASM 2.0;\nqreg q[2];\ngate r(t,t) a,a { rz(t) a; }\nr(1,2) q[0],q[1];\n",
	)
	return append(seeds, repeatedOperandPrograms...)
}

// TestParseMatchesReference runs the differential oracle over the seeds.
func TestParseMatchesReference(t *testing.T) {
	for i, src := range parseSeeds(t) {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkAgainstReference(t, src) })
	}
}

// FuzzParse checks Parse against the reference parser and the Write→Parse
// round trip. The op budget is lowered so no input can expand to a large
// circuit.
func FuzzParse(f *testing.F) {
	for _, src := range parseSeeds(f) {
		f.Add(src)
	}
	saved := maxOps
	maxOps = 1 << 12
	f.Cleanup(func() { maxOps = saved })
	f.Fuzz(checkAgainstReference)
}
