package qasm

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/circuit"
)

const wideHeader = "OPENQASM 2.0;\nqreg q[65536];\n"

// allocated returns the bytes Parse allocates on src and its error.
func allocated(src string) (uint64, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Parse(src, "hostile")
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestHostileProgramsStayBounded: short programs that expand without end
// must fail with a ParseError after bounded allocation. The gate list
// stops at maxOps entries and grows by doubling, so reaching the cap
// allocates at most twice the capped list; the other inputs allocate a
// few MB at most. Time is bounded by the expansion work cap.
func TestHostileProgramsStayBounded(t *testing.T) {
	gateBytes := uint64(unsafe.Sizeof(circuit.Gate{}))
	var empty strings.Builder
	empty.WriteString(wideHeader + "gate e0 a { }\n")
	for i := 1; i < 40; i++ {
		fmt.Fprintf(&empty, "gate e%d a { e%d a; e%d a; }\n", i, i-1, i-1)
	}
	empty.WriteString("e39 q[0];\n") // 2^40 expansions that lower to nothing
	for _, tc := range []struct {
		name, src, msg string
		bound          uint64
	}{
		{"bare semicolons", wideHeader + strings.Repeat(";", 1<<20), "unexpected token", 4 << 20},
		{"broadcast past the op cap", wideHeader + strings.Repeat("h q;\n", 5), "lowers to more than",
			2*gateBytes*uint64(maxOps) + 4<<20},
		{"measure broadcast past the op cap", wideHeader + "creg c[65536];\n" + strings.Repeat("measure q -> c;\n", 5),
			"lowers to more than", 2*gateBytes*uint64(maxOps) + 4<<20},
		{"empty nested expansions", empty.String(), "expansion takes more than", 1 << 20},
		// The bound covers storing the body's 40,003 tokens.
		{"long body broadcast", wideHeader + "gate g a { barrier a" + strings.Repeat(",a", 20000) + "; }\ng q;\n",
			"expansion takes more than", 16 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := allocated(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("err = %v, want one containing %q", err, tc.msg)
			}
			t.Logf("allocated %.1f MB (bound %.1f MB)", float64(got)/1e6, float64(tc.bound)/1e6)
			if got > tc.bound {
				t.Errorf("allocated %.1f MB for a %d-byte program, bound %.1f MB",
					float64(got)/1e6, len(tc.src), float64(tc.bound)/1e6)
			}
		})
	}
}

// TestOperandChecksAreLinear: the repeated-operand check and the lookup of
// a definition's formal names must stay linear in the operand count. A
// 65,536-operand application is 16× the size of a 4,096-operand one. The
// parser takes 16–40× as long on it (allocation growth adds to the
// ratio); a quadratic check or lookup takes about 200× as long.
func TestOperandChecksAreLinear(t *testing.T) {
	qubits := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "q[%d]", i)
		}
		return sb.String()
	}
	wideBuiltin := func(n int) string { return wideHeader + "h " + qubits(n) + ";\n" }
	wideDef := func(n int) string {
		var sb strings.Builder
		sb.WriteString(wideHeader + "gate g ")
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "a%d", i)
		}
		sb.WriteString(" {")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, " h a%d;", i)
		}
		sb.WriteString(" }\ng " + qubits(n) + ";\n")
		return sb.String()
	}
	fastest := func(src string) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			Parse(src, "wide")
			best = min(best, time.Since(start))
		}
		return best
	}
	for _, tc := range []struct {
		name  string
		build func(int) string
	}{
		{"builtin applied to distinct qubits", wideBuiltin},
		{"definition with one formal per qubit", wideDef},
	} {
		t.Run(tc.name, func(t *testing.T) {
			small, large := tc.build(1<<12), tc.build(1<<16)
			if _, err := Parse(large, "wide"); err != nil && !strings.Contains(err.Error(), "expects 1 operand") {
				t.Fatalf("unexpected error %v", err)
			}
			ts, tl := fastest(small), fastest(large)
			ratio := float64(tl) / float64(ts)
			t.Logf("%v vs %v: %.1f×", tl, ts, ratio)
			if ratio > 100 {
				t.Errorf("16× the operands took %.0f× as long (%v vs %v)", ratio, tl, ts)
			}
		})
	}
	c, err := Parse(wideDef(1<<16), "wide")
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range c.Gates {
		if g.Name != "h" || g.Target != i {
			t.Fatalf("gate %d = %v, want h on qubit %d", i, g, i)
		}
	}
}

// TestFirstErrorInSourceOrder: the lexer runs one token ahead of the
// parser, so a program with a lexer error and a parse or lowering error
// reports whichever comes first in the source.
func TestFirstErrorInSourceOrder(t *testing.T) {
	for _, tc := range []struct {
		name, src, msg string
		line           int
	}{
		{"parse error before lexer error", "OPENQASM 2.0;\nqreg q[1];\nh r[0];\nh q[0];\n$", "unknown quantum register", 3},
		{"lowering error just before lexer error", "OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n$", "unsupported gate", 3},
		{"lexer error before parse error", "OPENQASM 2.0;\nqreg q[1];\nh q[0]; $\nh r[0];\n", "unexpected character", 3},
		{"lexer error inside a statement", "OPENQASM 2.0;\nqreg q[1];\nh q[0] $;\n", "unexpected character", 3},
		{"lexer error after a valid program", "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n\"open", "unterminated string", 4},
		{"lexer error before the first register", "OPENQASM 2.0;\n$\n", "unexpected character", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src, "order")
			pe, ok := err.(*ParseError)
			if !ok || pe.Line != tc.line || !strings.Contains(pe.Msg, tc.msg) {
				t.Fatalf("err = %v, want line %d containing %q", err, tc.line, tc.msg)
			}
		})
	}
}
